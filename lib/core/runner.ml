module Gpu = Gpu_sim.Gpu
module Stats = Gpu_sim.Stats
module Kernel = Gpu_sim.Kernel

type run = {
  technique : Technique.t;
  kernel_name : string;
  cycles : int;
  instructions : int;
  theoretical_warps : int;
  theoretical_occupancy : float;
  achieved_occupancy : float;
  acquire_ratio : float;
  srp_sections : int;
  stats : Gpu_sim.Stats.t;
  prepared : Technique.prepared;
}

(* Host-side profiling phases (surfaced by `regmutex sweep --profile`):
   registered at module init, before the sweep engine spawns domains. *)
let prepare_phase = Telemetry.Profile.phase "runner.prepare"
let simulate_phase = Telemetry.Profile.phase "runner.simulate"

let prepare ?options ?(record_stores = false) ?(trace_warp0 = false)
    ?(max_cycles = 20_000_000) ?(fast_forward = true) ?(lane_resolved = false)
    ?telemetry ?facts cfg kernel =
  let facts =
    match facts with
    | Some f -> f
    | None -> Gpu_analysis.Facts.of_program kernel.Kernel.program
  in
  let prepare = Technique.preparer ?options cfg facts kernel in
  let simt =
    match options with
    | Some o -> o.Technique.simt
    | None -> Technique.default_options.Technique.simt
  in
  fun technique ->
    let prepared =
      Telemetry.Profile.time prepare_phase (fun () -> prepare technique)
    in
    ( prepared,
      {
        Gpu.arch = cfg;
        policy = prepared.Technique.policy;
        record_stores;
        trace_warp0;
        max_cycles;
        telemetry;
        fast_forward;
        simt;
        lane_resolved;
      } )

let simulate config prepared =
  Telemetry.Profile.time simulate_phase (fun () ->
      Gpu.run config prepared.Technique.kernel)

let input_key config kernel =
  match config.Gpu.telemetry with
  | None -> Marshal.to_string (config, kernel) [ Marshal.No_sharing ]
  | Some _ -> invalid_arg "Runner.input_key: a traced run has no input key"

let of_stats config prepared stats =
  let kernel' = prepared.Technique.kernel in
  let cfg = config.Gpu.arch in
  let theoretical_warps = Gpu.theoretical_warps config kernel' in
  {
    technique = prepared.Technique.technique;
    kernel_name = kernel'.Kernel.name;
    cycles = stats.Stats.cycles;
    instructions = stats.Stats.instructions;
    theoretical_warps;
    theoretical_occupancy =
      float_of_int theoretical_warps
      /. float_of_int cfg.Gpu_uarch.Arch_config.max_warps;
    achieved_occupancy = Stats.achieved_occupancy stats;
    acquire_ratio = Stats.acquire_success_ratio stats;
    srp_sections = Gpu.srp_sections_of config kernel';
    stats;
    prepared;
  }

let execute ?options ?record_stores ?trace_warp0 ?max_cycles ?fast_forward
    ?lane_resolved ?telemetry cfg technique kernel =
  let prepared, config =
    prepare ?options ?record_stores ?trace_warp0 ?max_cycles ?fast_forward
      ?lane_resolved ?telemetry cfg kernel technique
  in
  of_stats config prepared (simulate config prepared)

let outcome r =
  {
    Outcome.technique = r.technique;
    kernel_name = r.kernel_name;
    cycles = r.cycles;
    instructions = r.instructions;
    theoretical_warps = r.theoretical_warps;
    theoretical_occupancy = r.theoretical_occupancy;
    achieved_occupancy = r.achieved_occupancy;
    acquire_ratio = r.acquire_ratio;
    srp_sections = r.srp_sections;
    counters = Stats.counters r.stats;
    choice = r.prepared.Technique.choice;
    plan = Option.map Outcome.plan_of r.prepared.Technique.plan;
  }

let fingerprint r = Outcome.fingerprint (outcome r)

let check_finished config r =
  if r.stats.Stats.timed_out then
    Error
      (Printf.sprintf
         "%s/%s did not finish within the %d-cycle limit (%d of %d CTAs \
          retired)"
         r.kernel_name (Technique.name r.technique) config.Gpu.max_cycles
         r.stats.Stats.ctas_retired
         r.prepared.Technique.kernel.Kernel.grid_ctas)
  else Ok ()

let pp ppf r =
  Format.fprintf ppf "%s/%s: %d cycles, occ %.0f%% (ach %.0f%%), acq %.0f%%"
    r.kernel_name (Technique.name r.technique) r.cycles
    (100. *. r.theoretical_occupancy)
    (100. *. r.achieved_occupancy)
    (100. *. r.acquire_ratio)
