package experiments

import (
	"testing"

	"hpmmap/internal/pgtable"
)

// TestPgtableRoundTripAllocationFree checks that the auditor's page-table
// probe allocates nothing once its scratch table has grown the tables the
// probe maps through: each tick reuses the nodes the last one pruned.
func TestPgtableRoundTripAllocationFree(t *testing.T) {
	scratch := pgtable.New()
	var err error
	if allocs := testing.AllocsPerRun(100, func() { err = pgtableRoundTrip(scratch) }); allocs != 0 || err != nil {
		t.Fatalf("pgtableRoundTrip = %v with %v allocations per run, want nil and 0", err, allocs)
	}
}
