(** One-stop execution of a kernel under a technique: compile-time
    preparation, simulation, and the derived metrics the paper's figures
    report. *)

type run = {
  technique : Technique.t;
  kernel_name : string;
  cycles : int;
  instructions : int;
  theoretical_warps : int;
  theoretical_occupancy : float;  (** warps / max warps, per §II *)
  achieved_occupancy : float;     (** resident-warp integral over the run *)
  acquire_ratio : float;          (** successful acquires / acquire instrs *)
  srp_sections : int;
  stats : Gpu_sim.Stats.t;  (** read-only *)
  prepared : Technique.prepared;
}

(** [execute ?fast_forward cfg technique kernel] prepares and simulates:
    {!of_stats} of {!simulate} of {!prepare}.
    [fast_forward] (default [true]) selects event-driven cycle skipping in
    the simulator; it is semantics-preserving, so the resulting [run] (and
    its {!fingerprint}) is identical either way — [false] exists as the
    brute-force reference for the equivalence suite and benchmarks.
    [lane_resolved] (default [false]) starts every SIMT warp expanded,
    running each instruction once per active lane, instead of collapsed
    on one lane's register row; the run (and its fingerprint) is
    identical either way — it is the all-lanes reference the collapsed
    fast path is checked against. *)
val execute :
  ?options:Technique.options ->
  ?record_stores:bool ->
  ?trace_warp0:bool ->
  ?max_cycles:int ->
  ?fast_forward:bool ->
  ?lane_resolved:bool ->
  ?telemetry:Telemetry.Trace.t ->
  Gpu_uarch.Arch_config.t ->
  Technique.t ->
  Gpu_sim.Kernel.t ->
  run

(** The compile-time half of {!execute} (profiled as [runner.prepare]):
    the prepared technique and the exact machine input [Gpu.run] gets,
    with the same optional arguments and defaults. The simulated [run]
    is a function of the returned config and [prepared.kernel] alone,
    which is what lets the experiment engine simulate each distinct
    input once. Applied to a kernel, it prepares any number of
    techniques through one {!Technique.preparer}: one analysis of the
    kernel's program ([facts], when the caller has them) and one
    RegMutex plan. *)
val prepare :
  ?options:Technique.options ->
  ?record_stores:bool ->
  ?trace_warp0:bool ->
  ?max_cycles:int ->
  ?fast_forward:bool ->
  ?lane_resolved:bool ->
  ?telemetry:Telemetry.Trace.t ->
  ?facts:Gpu_analysis.Facts.t ->
  Gpu_uarch.Arch_config.t ->
  Gpu_sim.Kernel.t ->
  Technique.t ->
  Technique.prepared * Gpu_sim.Gpu.run_config

(** [simulate config prepared] runs [prepared.kernel] on the machine
    (profiled as [runner.simulate]). *)
val simulate : Gpu_sim.Gpu.run_config -> Technique.prepared -> Gpu_sim.Stats.t

(** [input_key config kernel] is the whole machine input of
    [Gpu.run config kernel] as bytes: two runs with equal keys produce
    equal statistics, which is what lets the experiment engine and the
    fuzz oracle simulate each distinct input once. [config] carries every
    field [Gpu.run] reads; a trace is not part of the input, so a config
    with one has no key.
    @raise Invalid_argument when [config] has a [telemetry] trace. *)
val input_key : Gpu_sim.Gpu.run_config -> Gpu_sim.Kernel.t -> string

(** [of_stats config prepared stats] derives the figure metrics of
    [stats], a simulation of [prepared] under [config]. *)
val of_stats :
  Gpu_sim.Gpu.run_config -> Technique.prepared -> Gpu_sim.Stats.t -> run

(** [outcome r] — what the figures read of [r] ({!Outcome.t}): its
    metrics, {!Gpu_sim.Stats.counters} of its statistics, and its |Es|
    choice and plan sizes. *)
val outcome : run -> Outcome.t

(** [Outcome.fingerprint (outcome r)]: identical for two runs of the same
    configuration regardless of which domain or process simulated them —
    the experiment engine compares these in its determinism checks. *)
val fingerprint : run -> string

(** [check_finished config r] — [Error line] when [r], simulated under
    [config], stopped at [config.max_cycles] with CTAs still running: one
    line that names the kernel and the cycle limit. The command-line
    tools print it to stderr and exit 1. *)
val check_finished : Gpu_sim.Gpu.run_config -> run -> (unit, string) result

val pp : Format.formatter -> run -> unit
