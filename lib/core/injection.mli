(** Acquire/release primitive injection (§III-A3).

    An instruction is in the {e extended state} when any register it
    references — or any register live across it — has an architected index
    at or above [|Bs|]: executing it requires the warp to hold an SRP
    section. Because acquire and release are idempotent by design, the
    injector places

    - an [Acquire] before every extended instruction reachable from a
      non-extended predecessor (or at program entry), and
    - a [Release] before every non-extended instruction reachable from an
      extended predecessor.

    Redundant primitives on already-correct paths execute as no-ops. *)

(** [ext_predicate ~bs prog liveness] marks the extended instructions. *)
val ext_predicate :
  bs:int -> Gpu_isa.Program.t -> Gpu_analysis.Liveness.t -> bool array

(** Fraction of static instructions in the extended state. *)
val ext_fraction : bool array -> float

type outcome = {
  program : Gpu_isa.Program.t;
  n_acquires : int;
  n_releases : int;
  ext_static_fraction : float;
}

(** [inject ~bs facts liveness] instruments [facts]' program, whose
    liveness is [liveness]. When no instruction is extended the program
    is returned unchanged (physically) with zero primitive counts
    ("zero-sized extended set" behaviour). *)
val inject :
  bs:int -> Gpu_analysis.Facts.t -> Gpu_analysis.Liveness.t -> outcome
