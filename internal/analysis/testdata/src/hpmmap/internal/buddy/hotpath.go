// Golden testdata for hotpath: every forbidden construct inside
// annotated functions, plus the exemptions — error paths, the
// s = s[:0] capacity-reuse discipline, local-only closures,
// immediately-invoked literals, unannotated functions, and
// //detsim:allow.
package buddy

import "fmt"

type pool struct {
	items  []uint64
	run    []uint64
	seen   map[uint64]bool
	emit   func(uint64)
	pushes int
}

func noop() {}

//detsim:hotpath
func (p *pool) push(v uint64) {
	p.items = append(p.items, v) // want `hotpath: append to escaping slice "p\.items" without the s = s\[:0\] reuse discipline`
}

//detsim:hotpath
func (p *pool) reset(n int) {
	scratch := make([]uint64, n) // a local slice: not reported
	_ = scratch
	p.run = make([]uint64, n) // want `hotpath: make into escaping slice "p\.run" \(allocates a backing array per call\)`
}

// The capacity-reuse discipline: truncate, then refill. Not reported.
//
//detsim:hotpath
func (p *pool) refill(vs []uint64) {
	p.run = p.run[:0]
	for _, v := range vs {
		p.run = append(p.run, v)
	}
}

//detsim:hotpath
func (p *pool) bad(v uint64) string {
	defer noop()                      // want `hotpath: defer \(allocates a deferred-call record per invocation\)`
	s := fmt.Sprintf("%d", v)         // want `hotpath: fmt\.Sprintf call \(formats and allocates\)`
	s = s + "!"                       // want `hotpath: string concatenation \(allocates the result\)`
	p.seen = map[uint64]bool{v: true} // want `hotpath: map literal \(allocates a hash table\)`
	m := make(map[uint64]bool)        // want `hotpath: make\(map\) \(allocates a hash table\)`
	for k := range m {                // want `hotpath: map iteration \(randomised order, per-iteration bucket walking\)`
		_ = k
	}
	return s
}

//detsim:hotpath
func (p *pool) concat(msg string) string {
	msg += "!" // want `hotpath: string concatenation with \+= \(allocates the result\)`
	return msg
}

//detsim:hotpath
func (p *pool) box(v uint64) {
	var sink interface{}
	sink = v // want `hotpath: interface boxing: storing uint64 into interface "sink"`
	_ = sink
}

//detsim:hotpath
func (p *pool) hooks(v uint64) uint64 {
	// A literal bound to a local and only invoked does not escape.
	inc := func(x uint64) uint64 { return x + 1 }
	// An immediately-invoked literal is a direct call, not a closure.
	base := func() uint64 { return 1 }()
	p.emit = func(x uint64) { p.pushes = int(x) } // want `hotpath: function literal in an escaping position \(allocates a closure\)`
	return inc(v) + base
}

// Error paths are off the hot path by definition.
//
//detsim:hotpath
func (p *pool) pop() (uint64, error) {
	if len(p.items) == 0 {
		return 0, fmt.Errorf("pool empty after %d pushes", p.pushes)
	}
	v := p.items[len(p.items)-1]
	p.items = p.items[:len(p.items)-1]
	return v, nil
}

// panic/invariant arguments are likewise failure-path.
//
//detsim:hotpath
func (p *pool) check(v uint64) {
	if p.seen == nil {
		panic(fmt.Sprintf("unseeded pool: %d", v))
	}
}

// Unannotated functions are free to allocate.
func (p *pool) slowPath(v uint64) string {
	return fmt.Sprintf("%d", v)
}

// The escape hatch: pooled growth with a documented reuse discipline.
//
//detsim:hotpath
func (p *pool) grow(v uint64) {
	//detsim:allow pool warm-up: capacity amortises to 0 B/op (doc example)
	p.items = append(p.items, v)
}
