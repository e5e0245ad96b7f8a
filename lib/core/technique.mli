(** The evaluated register-management techniques, tying the compiler side
    (heuristic + transform) to the simulator policy:

    - [Baseline]: stock static/exclusive allocation.
    - [Regmutex]: the paper's default design.
    - [Regmutex_paired]: the paired-warps specialization (§III-C).
    - [Owf]: resource sharing with owner-warp-first scheduling
      (Jatala et al. [7]) — one-time acquire, no in-kernel release.
    - [Rfv]: register file virtualization (Jeon et al. [3]).
    - [Regdem]: register demotion to shared memory (Sakdhnagool et al.,
      arXiv:1907.02894) — see {!Regdem}. *)

type t =
  | Baseline
  | Regmutex
  | Regmutex_paired
  | Owf
  | Rfv
  | Regdem

type options = {
  es_override : int option;  (** force [|Es|] (sensitivity sweeps) *)
  transform : Transform.options;
  verify : bool;  (** dynamic extended-access checking in the simulator *)
  simt : bool;
      (** per-thread (SIMT) execution in the simulator: lane-resolved
          register values, predication, and a reconvergence stack per
          warp (default [false] — warp-uniform execution) *)
}

val default_options : options

type prepared = {
  technique : t;
  kernel : Gpu_sim.Kernel.t;  (** program possibly transformed *)
  policy : Gpu_sim.Policy.t;
  choice : Es_heuristic.choice option;
  plan : Transform.plan option;
  regdem : Regdem.plan option;  (** demotion plan, for [Regdem] runs *)
}

(** [prepare ?options cfg t kernel] runs the compile-time side. For
    [Regmutex]/[Regmutex_paired]: when the heuristic yields no viable
    candidate, the kernel falls back to baseline behaviour (zero-sized
    extended set, no primitives inserted). [Regdem] likewise falls back
    to an empty spill window when no demotion beats baseline
    occupancy. *)
val prepare :
  ?options:options -> Gpu_uarch.Arch_config.t -> t -> Gpu_sim.Kernel.t -> prepared

val name : t -> string

(** Inverse of {!name} (also accepts the "paired" shorthand). *)
val of_name : string -> t option

val all : t list

(** Total mapping into {!Gpu_uarch.Storage_cost.technique}. Exhaustive by
    construction: adding a [Technique.t] constructor breaks this function
    at compile time until the new technique's hardware cost is
    classified, so the two variant types cannot silently drift. *)
val to_storage : t -> Gpu_uarch.Storage_cost.technique

(** Hardware tracking-storage bits of the technique on [cfg]. *)
val storage_bits : Gpu_uarch.Arch_config.t -> t -> int

(** [energy_counts cfg t stats] derives the energy model's activity
    counts from a run's counters: RF and shared accesses come straight
    from {!Gpu_sim.Stats}, renaming traffic is charged for [Rfv] (every
    RF access passes the renaming table), and acquire/release tracking
    updates for the RegMutex family. *)
val energy_counts :
  Gpu_uarch.Arch_config.t -> t -> Gpu_sim.Stats.t ->
  Gpu_uarch.Energy_model.counts

(** Modelled energy of a run under technique [t]. *)
val energy :
  ?constants:Gpu_uarch.Energy_model.constants ->
  Gpu_uarch.Arch_config.t -> t -> Gpu_sim.Stats.t ->
  Gpu_uarch.Energy_model.breakdown


