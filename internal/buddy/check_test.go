package buddy

import (
	"fmt"
	"testing"

	"hpmmap/internal/sim"
)

// refCheckInvariants is the map-based pool check CheckInvariants is
// checked against: it records every free unit in a map and reports the
// first one seen twice, with the per-order counts and the free bytes.
func refCheckInvariants(a *Allocator) error {
	var free uint64
	for _, r := range a.regions {
		covered := make(map[uint64]int)
		for o := 0; o <= r.maxOrder; o++ {
			bs := a.MinBlock() << uint(o)
			n := 0
			for slot := uint64(0); slot < r.slots(o); slot++ {
				if !r.freeAt(o, slot) {
					continue
				}
				n++
				off := slot << (r.shift + uint(o))
				if off%bs != 0 {
					return fmt.Errorf("buddy: free block %#x misaligned for order %d", off, o)
				}
				if off+bs > r.size {
					return fmt.Errorf("buddy: free block %#x order %d exceeds region", off, o)
				}
				for b := uint64(0); b < bs; b += a.MinBlock() {
					if prev, dup := covered[off+b]; dup {
						return fmt.Errorf("buddy: unit %#x free twice (orders %d, %d)", off+b, prev, o)
					}
					covered[off+b] = o
				}
				free += bs
			}
			if n != r.count[o] {
				return fmt.Errorf("buddy: order %d count %d != set bits %d", o, r.count[o], n)
			}
		}
	}
	if free != a.free {
		return fmt.Errorf("buddy: free accounting %d != lists %d", a.free, free)
	}
	return nil
}

// randomPoolState builds a pool of one or two regions of 1 to 64 minimum
// blocks each (most sizes not a power of two) and drives random
// allocations and frees through it.
func randomPoolState(r *sim.Rand) *Allocator {
	a := New(2 * mb)
	base := uint64(0)
	for i := 0; i <= r.Intn(2); i++ {
		size := uint64(1+r.Intn(64)) * 2 * mb
		if err := a.AddRegion(base, size); err != nil {
			panic(err)
		}
		base += size + 2*mb
	}
	type blk struct{ addr, size uint64 }
	var live []blk
	for op, n := 0, 10+r.Intn(60); op < n; op++ {
		if len(live) == 0 || r.Bool(0.6) {
			if addr, size, err := a.Alloc(uint64(1+r.Intn(16)) * 2 * mb); err == nil {
				live = append(live, blk{addr, size})
			}
			continue
		}
		i := r.Intn(len(live))
		a.Free(live[i].addr, live[i].size)
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return a
}

// plantExtraFreeBit sets one clear free bit at a random order and slot
// of a random region, raising count and free with it so that only an
// overlap with another free block (if any) shows.
func plantExtraFreeBit(r *sim.Rand, a *Allocator) {
	reg := a.regions[r.Intn(len(a.regions))]
	o := r.Intn(reg.maxOrder + 1)
	slots := reg.slots(o)
	start := uint64(r.Intn(int(slots)))
	for i := uint64(0); i < slots; i++ {
		if s := (start + i) % slots; !reg.freeAt(o, s) {
			reg.flip(o, s)
			reg.count[o]++
			a.free += a.MinBlock() << uint(o)
			return
		}
	}
}

// TestPoolCheckMatchesReference builds random allocate/free states, sets
// an extra free bit in about half of them, and requires CheckInvariants
// and the map-based reference to agree on every state, passing every
// uncorrupted one.
func TestPoolCheckMatchesReference(t *testing.T) {
	r := sim.NewRand(0xb0dd)
	const states = 3000
	var planted, flagged int
	for n := 0; n < states; n++ {
		a := randomPoolState(r)
		corrupt := r.Bool(0.5)
		if corrupt {
			plantExtraFreeBit(r, a)
			planted++
		}
		err, ref := a.CheckInvariants(), refCheckInvariants(a)
		if (err == nil) != (ref == nil) || !corrupt && err != nil {
			t.Fatalf("state %d (extra bit %v): CheckInvariants = %v; reference = %v", n, corrupt, err, ref)
		}
		if err != nil {
			flagged++
		}
	}
	t.Logf("%d states; %d extra bits planted, %d flagged", states, planted, flagged)
}

// TestPoolCheckAllocationFree checks that the pool check allocates
// nothing.
func TestPoolCheckAllocationFree(t *testing.T) {
	a := newPool(t, 96)
	for i := 0; i < 7; i++ {
		if _, _, err := a.Alloc(2 * mb); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if allocs := testing.AllocsPerRun(20, func() { err = a.CheckInvariants() }); allocs != 0 || err != nil {
		t.Fatalf("CheckInvariants = %v with %v allocations per run, want nil and 0", err, allocs)
	}
}
