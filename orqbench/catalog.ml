(* Every metric the benchmark prints, with its unit. BENCHMARK.json lists
   the same names (the unit test checks the two agree). A run without
   tracing prints exactly [end_to_end]; a traced run exactly [per_layer]. *)

let end_to_end =
  [
    ("pass_s", "s");
    ("lan_s", "s");
    ("wan_s", "s");
    ("online_rounds", "count");
    ("online_mib", "MiB");
    ("preproc_mib", "MiB");
    ("peak_rss_mib", "MiB");
    ("setup_s", "s");
    ("qps", "1/s");
    ("cold_p50_ms", "ms");
    ("cold_p95_ms", "ms");
  ]

let operator_metrics =
  List.concat_map
    (fun key ->
      [ (key ^ ".self_s", "s"); (key ^ ".rounds", "count"); (key ^ ".online_mib", "MiB") ])
    Layers.keys

let per_layer =
  operator_metrics
  @ [
      ("trace.coverage", "fraction");
      ("trace.coverage_bits", "fraction");
      ("trace.overhead_s", "s");
      ("cpu.pass_s", "s");
      ("wall.pass_s", "s");
      ("host.ref_ms", "ms");
      ("workloads.generate_s", "s");
      ("workloads.share_s", "s");
      ("plaintext.reference_s", "s");
      ("gc.alloc_mib", "MiB");
      ("gc.promoted_mib", "MiB");
      ("gc.major_collections", "count");
      ("chunkvec.peak_mib", "MiB");
      ("chunkvec.spills", "count");
      ("chunkvec.faults", "count");
      ("chunkvec.spilled_mib", "MiB");
      ("plan_cache.hit_ratio", "fraction");
      ("plan_cache.coalesced", "count");
      ("planner.plan_ms", "ms");
      ("service.queue_wait_p50_ms", "ms");
      ("service.exec_p50_ms", "ms");
      ("service.exec_p95_ms", "ms");
      ("jobqueue.rejected", "count");
      ("failed_frac", "fraction");
    ]
