(* Names, units and directions of every metric the benchmark reports.
   BENCHMARK.json at the repository root lists the same metrics (plus
   the end-to-end regression bounds); the smoke test checks the two
   agree. *)

type metric = { name : string; unit_ : string; higher_is_better : bool }

let m ?(higher = false) name unit_ = { name; unit_; higher_is_better = higher }

let end_to_end =
  [ m "wall_s" "s";
    m "peak_heap_mb" "MiB";
    m "setup_s" "s" ]

(* Layers called once per input program by the probe pass (see
   [Layers]); reported as mean host time per call. *)
let probe_layers =
  [ "gpu_isa.print_parse";
    "gpu_isa.codec";
    "gpu_analysis.cfg";
    "gpu_analysis.dominance";
    "gpu_analysis.liveness";
    "gpu_analysis.reconv";
    "regmutex.es_choose";
    "regmutex.transform";
    "regmutex.checker";
    "regmutex.regdem_choose";
    "regmutex.prepare" ]

let stall_reasons = List.map Gpu_sim.Stats.reason_name Gpu_sim.Stats.all_reasons

let oracle_phases =
  [ "baseline"; "roundtrip"; "techniques"; "forced-split"; "forced-regdem"; "simt" ]

let suite_entries = Experiments.Suite.names

let per_layer =
  List.map (fun l -> m (l ^ "_us") "us") probe_layers
  @ [ m "gpu_sim.ns_per_instr" "ns";
      m "gpu_sim.ns_per_cycle" "ns";
      m "gpu_sim.simt_overhead" "x";
      m ~higher:true "gpu_sim.ff_speedup" "x";
      m "gpu_sim.instructions" "count";
      m "gpu_sim.cycles" "count";
      m "gpu_sim.lane_slots_active" "count";
      m "gpu_sim.lane_slots_predicated" "count";
      m "gpu_sim.divergent_branches" "count" ]
  @ List.map (fun r -> m ("gpu_sim.stall." ^ r) "count") stall_reasons
  @ [ m "regmutex.runner_prepare_pct" "%";
      m "gpu_sim.runner_simulate_pct" "%";
      m "regmutex.executes_per_op" "count";
      m "experiments.merge_pct" "%";
      m "experiments.figure_self_pct" "%" ]
  @ List.map (fun e -> m ("experiments.figure." ^ e ^ "_pct") "%") suite_entries
  @ [ m "experiments.simulations_per_op" "count";
      m "experiments.store_entries" "count";
      m "experiments.store_kib" "KiB" ]
  @ List.map (fun p -> m ("fuzz.oracle." ^ p ^ "_pct") "%") oracle_phases
  @ [ m "trace.overhead" "x"; m "trace.spans" "count" ]

let find name = List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
