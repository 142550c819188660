// Golden-testdata stand-in for the real hpmmap/internal/metrics
// package: just enough surface (Registry registration methods plus a
// couple of names.go-style constants) for the metricname analyzer's
// receiver and constant-origin checks to engage.
package metrics

const (
	TLBSmallHitsTotal = "tlb_small_hits_total"
	BuddyAllocsTotal  = "buddy_allocs_total"
)

type Counter struct{ v uint64 }

func (c *Counter) Add(n uint64) { c.v += n }

type Histogram struct{ n uint64 }

type Registry struct{}

func (r *Registry) Counter(name string) *Counter              { return &Counter{} }
func (r *Registry) Histogram(name string) *Histogram          { return &Histogram{} }
func (r *Registry) CounterFunc(name string, fn func() uint64) {}
func (r *Registry) GaugeFunc(name string, fn func() float64)  {}
