package analysis

// panicAllowlist is the checked-in register of sanctioned
// programmer-error panic sites — the 18 sites classified "plain panic"
// in the DESIGN.md §8 audit table. Keyed by package path + enclosing
// function ("pkg.Func" or "pkg.Type.Method") with the number of
// sanctioned panic sites in that function, so the list survives
// line-number churn and intra-function refactors while still catching
// a *new* panic added to a listed function (it becomes the n+1th site
// and is reported).
//
// Maintenance recipe (see ANALYSIS.md):
//  1. A new panic is only sanctionable if it is a programmer error —
//     API misuse by the caller (bad constructor argument, out-of-range
//     index, use-after-drain) — never simulated-state corruption.
//  2. Add/bump the entry here, AND update the DESIGN.md §8 table row
//     for the subsystem (counts are cross-checked by
//     TestPanicAllowlistMatchesDesignTable).
//  3. Prefer //detsim:allow <reason> for panics in plumbing that
//     re-raises recovered values (those are not new failure modes and
//     stay out of the audit table).
var panicAllowlist = map[string]int{
	// internal/pgtable — 2: unaligned VA / invalid page size.
	"hpmmap/internal/pgtable.PageSize.Bytes": 1,
	"hpmmap/internal/pgtable.levelFor":       1,

	// internal/mem — 6: bad zone geometry / constructor args,
	// out-of-range order.
	"hpmmap/internal/mem.NewZone":         2,
	"hpmmap/internal/mem.Zone.AllocPages": 1,
	"hpmmap/internal/mem.Zone.FreeBlock":  1,
	"hpmmap/internal/mem.NewNodeMemory":   2,

	// internal/buddy — 1: non-power-of-two min block.
	"hpmmap/internal/buddy.New": 1,

	// internal/kernel — 1: running a finished task.
	"hpmmap/internal/kernel.Node.Run": 1,

	// internal/sim — 4: zero-bound PRNG draws, event misuse.
	"hpmmap/internal/sim.Rand.Uint64n":     1,
	"hpmmap/internal/sim.Rand.Intn":        1,
	"hpmmap/internal/sim.Engine.At":        1,
	"hpmmap/internal/sim.Engine.NewTicker": 1,

	// internal/metrics — 2: kind mismatch on re-registration.
	"hpmmap/internal/metrics.Registry.lookup": 2,

	// internal/linuxmm — 1: unknown mode / missing hugetlb pools.
	"hpmmap/internal/linuxmm.New": 1,

	// internal/tlb — 1: invalid entry-size configuration.
	"hpmmap/internal/tlb.MustNew": 1,
}
