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
    ?(max_cycles = 20_000_000) ?(fast_forward = true) ?(corrupt_mask = 0)
    ?(lane_resolved = false) ?telemetry cfg technique kernel =
  let prepared =
    Telemetry.Profile.time prepare_phase (fun () ->
        Technique.prepare ?options cfg technique kernel)
  in
  let simt =
    match options with
    | Some o -> o.Technique.simt
    | None -> Technique.default_options.Technique.simt
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
      corrupt_mask;
      lane_resolved;
    } )

let simulate config prepared =
  Telemetry.Profile.time simulate_phase (fun () ->
      Gpu.run config prepared.Technique.kernel)

let input_key config kernel =
  match config.Gpu.telemetry with
  | None -> Marshal.to_string (config, kernel) [ Marshal.No_sharing ]
  | Some _ -> invalid_arg "Runner.input_key: a run with a sink has no input key"

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
    ?corrupt_mask ?lane_resolved ?telemetry cfg technique kernel =
  let prepared, config =
    prepare ?options ?record_stores ?trace_warp0 ?max_cycles ?fast_forward
      ?corrupt_mask ?lane_resolved ?telemetry cfg technique kernel
  in
  of_stats config prepared (simulate config prepared)

(* Stable digest of everything the figures read off a run. Two runs of the
   same cell must produce the same fingerprint no matter which domain (or
   process) simulated them — the experiment engine's determinism and
   cache round-trip checks compare these. *)
let fingerprint r =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.kernel_name, Technique.name r.technique, r.cycles, r.instructions,
            r.theoretical_warps, r.theoretical_occupancy, r.achieved_occupancy,
            r.acquire_ratio, r.srp_sections, r.stats.Stats.acquire_execs,
            r.stats.Stats.acquire_first_try, r.stats.Stats.shared_oob )
          []))

let reduction_pct ~baseline run =
  if baseline.cycles = 0 then 0.
  else
    100.
    *. float_of_int (baseline.cycles - run.cycles)
    /. float_of_int baseline.cycles

let increase_pct ~baseline run = -.reduction_pct ~baseline run

let pp ppf r =
  Format.fprintf ppf "%s/%s: %d cycles, occ %.0f%% (ach %.0f%%), acq %.0f%%"
    r.kernel_name (Technique.name r.technique) r.cycles
    (100. *. r.theoretical_occupancy)
    (100. *. r.achieved_occupancy)
    (100. *. r.acquire_ratio)
