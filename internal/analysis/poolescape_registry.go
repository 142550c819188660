package analysis

// pooledTypeInfo describes one pooled simulation type from the
// DESIGN.md §11 inventory.
type pooledTypeInfo struct {
	// owner is the package whose pool recycles the type.
	owner string
	// sealed types must not be mentioned outside owner at all: the
	// "no *VMA escapes the package" safety argument. Non-sealed types
	// may be passed around transiently (parameters, results, locals)
	// but may only be *held* — struct fields, package variables, named
	// container types — by the sanctioned holders below.
	sealed bool
}

// pooledTypes is the pool inventory of DESIGN.md §11: objects recycled
// through Reset/Reap cycles whose stale references are ABA hazards
// (the pool hands the same pointer to an unrelated successor).
var pooledTypes = map[string]pooledTypeInfo{
	// vma.Space recycles VMA nodes through its free pool on
	// split/merge/unmap; a *VMA outside the package can outlive its
	// node. Sealed: the type never appears outside internal/vma
	// (Space.VMAs()/Find callers iterate transiently via inference).
	modulePath + "/internal/vma.VMA": {owner: modulePath + "/internal/vma", sealed: true},

	// The process-lifecycle pools (DESIGN.md §11): ExitReap returns
	// Process and Task structs to lifecyclePools; MMLockedUntil is the
	// ABA guard for the manager detach window.
	modulePath + "/internal/kernel.Process": {owner: modulePath + "/internal/kernel"},
	modulePath + "/internal/kernel.Task":    {owner: modulePath + "/internal/kernel"},

	// Per-manager pooled state, recycled by DetachReap.
	modulePath + "/internal/linuxmm.region":    {owner: modulePath + "/internal/linuxmm"},
	modulePath + "/internal/linuxmm.touchCtx":  {owner: modulePath + "/internal/linuxmm"},
	modulePath + "/internal/linuxmm.procState": {owner: modulePath + "/internal/linuxmm"},
	modulePath + "/internal/core.region":       {owner: modulePath + "/internal/core"},
	modulePath + "/internal/core.procState":    {owner: modulePath + "/internal/core"},
}

// poolHolderRegistry sanctions every declaration that is allowed to
// HOLD a pooled pointer past a function return: struct fields
// ("pkg.Type.field"), package-level variables ("pkg.var"), and named
// container types ("pkg.Type"). Each entry's reason documents the
// clearing discipline that keeps the holder reap-safe — who clears the
// reference, and before which pool Reset/Reap. A holder without a
// documented clearing discipline is exactly the bug this registry
// exists to prevent; additions belong in the same PR as the clearing
// code.
var poolHolderRegistry = map[string]string{
	// -- kernel: the pools themselves and the live-process tables ------
	modulePath + "/internal/kernel.lifecyclePools.procs": "the Process pool itself; entries are dead by definition (pushed only from reap after teardown)",
	modulePath + "/internal/kernel.lifecyclePools.tasks": "the Task pool itself; entries are dead by definition",
	modulePath + "/internal/kernel.Node.procs":           "the PID-ordered live-process table; Exit and ExitReap remove the Process (slices.Delete nils the vacated tail slot) before reap pools it",
	modulePath + "/internal/kernel.Process.tasks":        "intra-aggregate: tasks die with their process; reap pools tasks and truncates this slice together",
	modulePath + "/internal/kernel.Task.Proc":            "intra-aggregate back-pointer; cleared by taskStruct reinitialisation on reuse",

	// -- linuxmm: manager-held process list and pooled region state ----
	modulePath + "/internal/linuxmm.Manager.procs":      "attach list; Detach/DetachReap remove the entry before the Process can be pooled",
	modulePath + "/internal/linuxmm.Manager.regionPool": "the region pool itself; entries are detached by definition",
	modulePath + "/internal/linuxmm.Manager.psPool":     "the procState pool itself; entries are detached by definition",
	modulePath + "/internal/linuxmm.procState.regions":  "intra-aggregate: regions die with their procState; DetachReap pools both together",
	modulePath + "/internal/linuxmm.procState.stack":    "intra-aggregate alias of the stack's entry in regions; recycled with the procState",
	modulePath + "/internal/linuxmm.procState.heap":     "intra-aggregate alias of the heap's entry in regions; recycled with the procState",
	modulePath + "/internal/linuxmm.touchCtx.p":         "per-call scratch (DESIGN.md §10); rebound at every TouchRange entry before use",
	modulePath + "/internal/linuxmm.touchCtx.r":         "per-call scratch; rebound at every TouchRange entry before use",

	// -- core (HPMMAP manager): same pooling structure as linuxmm ------
	modulePath + "/internal/core.Manager.regionPool": "the region pool itself; entries are detached by definition",
	modulePath + "/internal/core.Manager.psPool":     "the procState pool itself; entries are detached by definition",
	modulePath + "/internal/core.procState.regions":  "intra-aggregate: regions die with their procState; DetachReap pools both together",
	modulePath + "/internal/core.procState.heap":     "intra-aggregate alias of the heap's entry in regions; recycled with the procState",

	// -- scenario layers: holders cleared at process exit --------------
	modulePath + "/internal/chaos.spikeProc.p":           "spike working set; the spike's exit event kills and forgets the process before any reap",
	modulePath + "/internal/workload.rankState.p":        "per-rank process for the run's duration; the app tears down its own ranks before the cell ends",
	modulePath + "/internal/workload.rankState.t":        "per-rank task, torn down with rankState.p",
	modulePath + "/internal/workload.Build.resident":     "resident helper process; Build.Stop kills it before the cell's node is reaped",
	modulePath + "/internal/datacenter.pod.p":            "pod process; evict/complete paths call ExitReap and drop the pod entry in the same event",
	modulePath + "/internal/datacenter.residentPod.proc": "resident daemonset process; lives for the whole cell and is never reaped mid-run",

	// -- public facade -------------------------------------------------
	modulePath + ".Process.p": "facade handle owned by the caller; Exit() is the only reap path and invalidates the handle",
}
