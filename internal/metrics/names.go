package metrics

// Canonical metric names. Every metric the simulator ships is declared
// here, documented in OBSERVABILITY.md, and cross-checked between the
// two by contract_test.go — add the constant, instrument the subsystem,
// and add the doc row together (see "How to add a metric" in
// OBSERVABILITY.md).
//
// Naming scheme: subsystem_name_unit, lower snake case. Counters end in
// _total (events) or a unit suffix such as _cycles / _pages / _bytes
// when they accumulate a quantity; gauges carry a bare unit; histograms
// name the observed unit (e.g. _cycles).
const (
	// fault_* — per-kind costs of faults taken by recorder-instrumented
	// processes (rank 0 in the fault studies), matching the Fig. 2/3
	// table populations byte-for-byte.
	FaultSmallFaultsTotal     = "fault_small_faults_total"
	FaultSmallCycles          = "fault_small_cycles"
	FaultLargeFaultsTotal     = "fault_large_faults_total"
	FaultLargeCycles          = "fault_large_cycles"
	FaultMergeFaultsTotal     = "fault_merge_faults_total"
	FaultMergeCycles          = "fault_merge_cycles"
	FaultHugeSmallFaultsTotal = "fault_hugetlb_small_faults_total"
	FaultHugeSmallCycles      = "fault_hugetlb_small_cycles"
	FaultHugeLargeFaultsTotal = "fault_hugetlb_large_faults_total"
	FaultHugeLargeCycles      = "fault_hugetlb_large_cycles"
	FaultStackFaultsTotal     = "fault_stack_faults_total"
	FaultStackCycles          = "fault_stack_cycles"

	// app_* — faults taken by every application (non-commodity) rank on
	// the node, regardless of recorder attachment or fidelity mode.
	AppFaultsTotal      = "app_faults_total"
	AppFaultCyclesTotal = "app_fault_cycles_total"
	AppFaultStallsTotal = "app_fault_stalls_total"

	// commodity_* — background (commodity) workload activity.
	CommodityFaultsTotal = "commodity_faults_total"

	// buddy_* — the buddy allocator(s); multi-zone pools aggregate
	// additively under the same names.
	BuddyAllocsTotal   = "buddy_allocs_total"
	BuddyFreesTotal    = "buddy_frees_total"
	BuddySplitsTotal   = "buddy_splits_total"
	BuddyMergesTotal   = "buddy_merges_total"
	BuddyFailuresTotal = "buddy_failures_total"
	BuddyFreeBytes     = "buddy_free_bytes"
	BuddyFragRatio     = "buddy_fragmentation_ratio"

	// pgtable_* — page-table construction and software walks.
	PgtableWalksTotal      = "pgtable_walks_total"
	PgtableWalkDepthLevels = "pgtable_walk_depth_levels"

	// tlb_* — TLB reach model.
	TLBSmallHitsTotal   = "tlb_small_hits_total"
	TLBSmallMissesTotal = "tlb_small_misses_total"
	TLBLargeHitsTotal   = "tlb_large_hits_total"
	TLBLargeMissesTotal = "tlb_large_misses_total"
	TLBFlushesTotal     = "tlb_flushes_total"
	TLBPageFlushesTotal = "tlb_page_flushes_total"

	// kernel_* — node-level kernel activity (scheduler, reclaim, page
	// cache).
	KernelContextSwitchesTotal     = "kernel_context_switches_total"
	KernelSchedSegmentsTotal       = "kernel_sched_segments_total"
	KernelKswapdRunsTotal          = "kernel_kswapd_runs_total"
	KernelReclaimedPagesTotal      = "kernel_reclaimed_pages_total"
	KernelOOMKillsTotal            = "kernel_oom_kills_total"
	KernelPagecacheAllocFailsTotal = "kernel_pagecache_alloc_fails_total"
	KernelPagecachePages           = "kernel_pagecache_pages"
	KernelCommitPressure           = "kernel_commit_pressure"

	// linuxmm_* — the commodity Linux memory-manager model (THP and
	// HugeTLBfs paths).
	LinuxmmLargeFaultsTotal      = "linuxmm_large_faults_total"
	LinuxmmSmallFaultsTotal      = "linuxmm_small_faults_total"
	LinuxmmFallbackFaultsTotal   = "linuxmm_fallback_faults_total"
	LinuxmmCompactionsTotal      = "linuxmm_compactions_total"
	LinuxmmReclaimStormsTotal    = "linuxmm_reclaim_storms_total"
	LinuxmmReclaimStormsHPCTotal = "linuxmm_reclaim_storms_hpc_total"
	LinuxmmSplitOnMlockTotal     = "linuxmm_split_on_mlock_total"
	LinuxmmSwappedOutPagesTotal  = "linuxmm_swapped_out_pages_total"
	LinuxmmGatedAllocRunsTotal   = "linuxmm_gated_alloc_runs_total"
	LinuxmmGatedAllocBlocksTotal = "linuxmm_gated_alloc_blocks_total"
	LinuxmmRegionPoolReusesTotal = "linuxmm_region_pool_reuses_total"

	// thp_* — the khugepaged merge daemon.
	THPScansTotal        = "thp_scans_total"
	THPMergesTotal       = "thp_merges_total"
	THPFailedMergesTotal = "thp_failed_merges_total"

	// hpmmap_* — the HPMMAP lightweight manager.
	HPMMAPRegistrationsTotal = "hpmmap_registrations_total"
	HPMMAPMapCallsTotal      = "hpmmap_map_calls_total"
	HPMMAPUnmapCallsTotal    = "hpmmap_unmap_calls_total"
	HPMMAPBrkCallsTotal      = "hpmmap_brk_calls_total"
	HPMMAPBytesMapped        = "hpmmap_bytes_mapped"

	// bsp_* — the bulk-synchronous-parallel workload model. The
	// straggler metrics appear only when a run attaches a
	// timeline.Attribution (barrier critical-path attributor), so
	// baseline figure snapshots are unchanged.
	BSPBarriersTotal           = "bsp_barriers_total"
	BSPBarrierWaitCycles       = "bsp_barrier_wait_cycles"
	BSPStragglersTotal         = "bsp_stragglers_total"
	BSPStragglerLatenessCycles = "bsp_straggler_lateness_cycles"

	// cluster_* — the multi-node exchange model.
	ClusterExchangesTotal = "cluster_exchanges_total"
	ClusterCommCycles     = "cluster_comm_cycles"

	// sim_* — the discrete-event engine itself.
	SimEventsTotal = "sim_events_total"
	SimFinalCycles = "sim_final_cycles"

	// chaos_* — the deterministic fault injector (internal/chaos). Only
	// present when a run attaches an injector; chaos runs are never part
	// of the baseline figure pipeline.
	ChaosEventsTotal             = "chaos_events_total"
	ChaosPressureSpikesTotal     = "chaos_pressure_spikes_total"
	ChaosPressureSpikeBytesTotal = "chaos_pressure_spike_bytes_total"
	ChaosBuddyBurstsTotal        = "chaos_buddy_bursts_total"
	ChaosBuddyBurstPagesTotal    = "chaos_buddy_burst_pages_total"
	ChaosPagecacheFillsTotal     = "chaos_pagecache_fills_total"
	ChaosPagecacheFillBytesTotal = "chaos_pagecache_fill_bytes_total"
	ChaosSwapFillsTotal          = "chaos_swap_fills_total"
	ChaosSwapReservedPagesTotal  = "chaos_swap_reserved_pages_total"
	ChaosTLBStormsTotal          = "chaos_tlb_storms_total"
	ChaosTLBStormStallsTotal     = "chaos_tlb_storm_stalls_total"
	ChaosStragglersTotal         = "chaos_stragglers_total"
	ChaosStragglerCycles         = "chaos_straggler_cycles"
	ChaosNodeFailsTotal          = "chaos_node_fails_total"
	ChaosNodeFailCycles          = "chaos_node_fail_cycles"

	// kernel lifecycle fast-path counters (internal/kernel lifecycle.go).
	KernelLifecycleReapsTotal      = "kernel_lifecycle_reaps_total"
	KernelLifecycleProcReusesTotal = "kernel_lifecycle_proc_reuses_total"
	KernelLifecycleTaskReusesTotal = "kernel_lifecycle_task_reuses_total"

	// datacenter_* — the kubelet-style orchestration agent
	// (internal/datacenter). Present only when a run attaches an agent;
	// never part of the baseline figure pipeline.
	DatacenterPodsLaunchedTotal    = "datacenter_pods_launched_total"
	DatacenterPodsRejectedTotal    = "datacenter_pods_rejected_total"
	DatacenterPodsCompletedTotal   = "datacenter_pods_completed_total"
	DatacenterPodsOOMKilledTotal   = "datacenter_pods_oom_killed_total"
	DatacenterPodsRunning          = "datacenter_pods_running"
	DatacenterAdmittedBytes        = "datacenter_admitted_bytes"
	DatacenterPodTouchCycles       = "datacenter_pod_touch_cycles"
	DatacenterPodsEvictedTotal     = "datacenter_pods_evicted_total"
	DatacenterPodsRestartedTotal   = "datacenter_pods_restarted_total"
	DatacenterPodsRescheduledTotal = "datacenter_pods_rescheduled_total"
	DatacenterEvictionPassesTotal  = "datacenter_eviction_passes_total"
	DatacenterPodBackoffCycles     = "datacenter_pod_backoff_cycles"

	// invariant_* — the opt-in consistency auditor (internal/invariant).
	InvariantChecksTotal     = "invariant_checks_total"
	InvariantViolationsTotal = "invariant_violations_total"

	// runner_* — plan-level orchestration health (internal/runner).
	// These live in the plan registry, not per-cell registries, so they
	// appear exactly once in a merged snapshot.
	RunnerCacheCorruptTotal = "runner_cache_corrupt_total"
	RunnerCellsFailedTotal  = "runner_cells_failed_total"
	RunnerCellRetriesTotal  = "runner_cell_retries_total"

	// runner_ledger_* — the run journal (internal/ledger). Records
	// counts only the canonical projection: host-annex record counts
	// vary with cache state and worker scheduling, and a counter that
	// varies would break the merged snapshot's byte-identity contract.
	RunnerLedgerRecordsTotal = "runner_ledger_records_total"
	RunnerLedgerPlansTotal   = "runner_ledger_plans_total"

	// timeline_* — the deterministic time-series sampler
	// (internal/timeline). Present only when a run attaches a Series.
	TimelineSamplesTotal = "timeline_samples_total"
)
