(** What the figures read of one simulated cell: the {!Runner.run}
    metrics, the simulation's scalar counters, and the compile's |Es|
    choice and plan sizes.

    It is the value the experiment engine caches, memoises by machine
    input and writes to its result store, so it holds nothing whose size
    grows with the grid or the program: no {!Gpu_sim.Stats.t} (per-warp
    instruction counts, store and pc traces) and no
    {!Gpu_isa.Program.t}. A stored cell is a few hundred bytes. *)

(** The sizes of a RegMutex {!Transform.plan} that the figures print. *)
type plan = {
  bs : int;
  es : int;
  n_acquires : int;
  n_movs : int;
  ext_static_fraction : float;  (** static instructions in acquire state *)
}

type t = {
  technique : Technique.t;
  kernel_name : string;
  cycles : int;
  instructions : int;
  theoretical_warps : int;
  theoretical_occupancy : float;  (** warps / max warps, per §II *)
  achieved_occupancy : float;     (** resident-warp integral over the run *)
  acquire_ratio : float;          (** successful acquires / acquire instrs *)
  srp_sections : int;
  counters : Gpu_sim.Stats.counters;
  choice : Es_heuristic.choice option;
      (** the |Es| heuristic's pick; [None] when RegMutex fell back to
          baseline behaviour, or for another technique *)
  plan : plan option;
}

val plan_of : Transform.plan -> plan

(** [with_compile prepared o] — [o] with the compile-side fields
    (technique, |Es| choice, plan) of [prepared]: the outcome of another
    cell that prepared to [o]'s machine input. Every other field is a
    function of that input and its simulation. *)
val with_compile : Technique.prepared -> t -> t

(** Stable digest of the metrics the figures read: equal for two
    simulations of one configuration, whichever domain or process ran
    them. {!Runner.fingerprint} is this digest of {!Runner.outcome}. *)
val fingerprint : t -> string

(** [(baseline - o) / baseline × 100] cycles — positive is faster
    (Figures 7, 9a, 10, 12a). *)
val reduction_pct : baseline:t -> t -> float

(** [(o - baseline) / baseline × 100] cycles — positive is slower
    (Figures 8, 9b, 12b). *)
val increase_pct : baseline:t -> t -> float

(** Modelled energy of the run under its technique on [arch]
    ({!Technique.energy}). *)
val energy :
  Gpu_uarch.Arch_config.t -> t -> Gpu_uarch.Energy_model.breakdown
