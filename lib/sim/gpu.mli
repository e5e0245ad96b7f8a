(** Whole-GPU simulation driver: dispatches the grid's CTAs over the SMs
    and steps them cycle by cycle until the grid completes — fast-forwarding
    over fully idle spans unless asked not to. *)

type run_config = {
  arch : Gpu_uarch.Arch_config.t;
  policy : Policy.t;
  record_stores : bool;  (** collect per-warp store traces *)
  trace_warp0 : bool;    (** collect the PC trace of CTA 0 / warp 0 *)
  max_cycles : int;      (** watchdog; the run flags [timed_out] past it *)
  telemetry : Telemetry.Trace.t option;
      (** trace recorder, off by default — the simulator's one event
          stream. When present, the SMs record warp/CTA lifetimes, SRP
          holds, acquire stalls, barrier traffic, stall episodes and
          occupancy counters into its ring ({!Probe}). The disabled path
          is a no-op: statistics and fast-forward behaviour are
          bit-identical with and without a trace (the test suite enforces
          this). *)
  fast_forward : bool;
      (** Event-driven cycle skipping (default [true]): when no warp on any
          SM can issue and no CTA can launch, the clock jumps straight to
          the earliest wakeup (scoreboard or memory-slot completion) and
          the skipped cycles' statistics are accounted in bulk. Strictly
          semantics-preserving — statistics and the trace's records are
          bit-identical to per-cycle stepping; [false] is the brute-force
          escape hatch the equivalence suite and benchmarks compare
          against. *)
  simt : bool;
      (** Per-thread (SIMT) execution, off by default: lane-resolved
          register values, predicated execution under an active-lane mask,
          and an immediate-post-dominator reconvergence stack per warp.
          Timing stays warp-granular; a warp-uniform program produces
          bit-identical statistics and store traces in both models. *)
  lane_resolved : bool;
      (** Reference run, meaningful only with [simt] (default [false]):
          start every warp lane-resolved instead of collapsed. A collapsed
          warp runs each instruction once, at warp level on one lane's
          register row, until its first [%laneid] read; the results are
          identical either way, and [true] is the all-lanes run the
          collapsed fast path is checked against. *)
}

val default_config : Gpu_uarch.Arch_config.t -> Policy.t -> run_config

(** Per-SM slice of a deadlock diagnostic. *)
type sm_diag = {
  dl_sm : int;
  dl_srp_in_use : int;
  dl_srp_sections : int;
  dl_warps : Sm.warp_diag list;
}

type deadlock_info = {
  dl_cycle : int;          (** first cycle at which the machine froze *)
  dl_pending_ctas : int;   (** grid CTAs that never launched *)
  dl_grid_ctas : int;
  dl_retired : int;
  dl_sms : sm_diag list;
}

(** Raised by {!run} when the machine can never make progress again: no
    warp on any SM can issue, no CTA can launch, and no future wakeup
    (scoreboard or memory completion) exists — every stalled warp waits on
    an issue that can no longer happen (acquire / barrier / RFV-register
    stalls). Detection is identical under fast-forward and brute-force
    stepping: both see the same first frozen cycle. The fuzz oracle
    consumes this as its forward-progress watchdog. *)
exception Deadlock of deadlock_info

val pp_deadlock : Format.formatter -> deadlock_info -> unit

(** Run a kernel to completion; returns the populated statistics.

    [observe] is called after all SMs stepped, on every cycle that is a
    multiple of [observe_every] (default [1]: every cycle). Under
    fast-forward the jump is clamped so each sampled cycle is genuinely
    visited — the observed cycle grid is exactly the multiples of
    [observe_every] below the run's cycle count, identical in both modes.
    Passing [observe] with the default interval therefore disables
    skipping entirely; callers that only need a periodic sample (e.g.
    occupancy timelines) should pass the coarsest interval they can
    tolerate. [observe_every] without [observe] has no effect.

    @raise Invalid_argument if [observe_every < 1].
    @raise Sm.Verification_failure in verification mode on unsound
    extended-set accesses. *)
val run :
  ?observe:(cycle:int -> Sm.t array -> unit) ->
  ?observe_every:int ->
  run_config ->
  Kernel.t ->
  Stats.t

(** Theoretical resident warps per SM under the run's policy (the paper's
    occupancy numerator). Computed from the SM's capacity rules without
    building an SM.
    @raise Invalid_argument for a policy/kernel pair {!Sm.create} rejects. *)
val theoretical_warps : run_config -> Kernel.t -> int

(** SRP sections per SM under the run's policy (0 for non-SRP policies);
    {!Sm.srp_sections_for}. *)
val srp_sections_of : run_config -> Kernel.t -> int
