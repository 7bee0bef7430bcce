package main

// endToEndUnits names the metrics of an untraced run and their units.
var endToEndUnits = map[string]string{
	"experiments_per_s":          "1/s",
	"setup_s":                    "s",
	"cpu_ms_per_experiment":      "ms",
	"allocs_per_experiment":      "count",
	"alloc_bytes_per_experiment": "B",
	"peak_rss_mb":                "MB",
}

// layerUnits names the per-layer metrics of a traced run, apart from
// the per-layer shares, and their units.
var layerUnits = map[string]string{
	"core.engine_build_s":         "s",
	"core.golden_s":               "s",
	"core.experiments_completed":  "count",
	"core.workspace_pool_misses":  "count",
	"core.group_rebuilds":         "count",
	"core.checkpoint_prefixes":    "count",
	"core.trie_suffix_forks":      "count",
	"core.trie_sim_s_saved":       "s",
	"core.sim_s_per_experiment":   "s",
	"core.early_exits":            "count",
	"core.early_exit_sim_s_saved": "s",
	"core.experiment_wall_ms.p50": "ms",
	"core.experiment_wall_ms.p90": "ms",

	"des.events_executed": "count",
	"des.snapshots":       "count",
	"des.restores":        "count",
	"des.ns_per_event":    "ns",

	"runner.run_s":            "s",
	"runner.core_utilisation": "ratio",
	"runner.worker_imbalance": "ratio",
	"runner.sink_put_s":       "s",
	"runner.rows_emitted":     "count",

	"fabric.lease_rtt_ms.p50":    "ms",
	"fabric.lease_rtt_ms.p90":    "ms",
	"fabric.complete_rtt_ms.p50": "ms",
	"fabric.complete_rtt_ms.p90": "ms",
	"fabric.handler_s":           "s",
	"fabric.execute_s":           "s",
	"fabric.worker_idle_s":       "s",
	"fabric.wire_bytes":          "B",
	"fabric.leases_granted":      "count",
	"fabric.leases_expired":      "count",
	"fabric.stale_rejected":      "count",

	"bench.tracing_overhead": "ratio",
	"bench.host_slowdown":    "ratio",
	"bench.steal_share":      "ratio",
}

// perLayerUnits is every metric of a traced run with its unit: the
// layer metrics plus a CPU and an allocation share per layer.
func perLayerUnits() map[string]string {
	out := make(map[string]string, len(layerUnits)+2*len(layers))
	for name, unit := range layerUnits {
		out[name] = unit
	}
	for _, l := range layers {
		out[l+".cpu_share"] = "ratio"
		out[l+".alloc_share"] = "ratio"
	}
	return out
}
