(** The complete RegMutex compiler pass (§III-A), applied — as the paper
    prescribes — at the assembly level where architected register indices
    are final:

    + register liveness analysis (with divergence widening),
    + index compaction (duration-ranked permutation, then per-release-point
      [Mov] compaction),
    + acquire/release primitive injection,
    + static soundness verification ({!Checker}).

    [|Es|] size selection is separate ({!Es_heuristic}) because it needs
    the architecture configuration, not just the program. *)

type plan = {
  original : Gpu_isa.Program.t;
  transformed : Gpu_isa.Program.t;
  bs : int;
  es : int;
  n_acquires : int;
  n_releases : int;
  n_movs : int;
  ext_static_fraction : float;  (** static instructions in acquire state *)
  max_pressure : int;           (** of the original program, post-widening *)
}

exception Unsound of Checker.violation list

type options = {
  widen : bool;        (** divergence-conservative liveness (default on) *)
  permute : bool;      (** duration-ranked renaming (default on) *)
  mov_compact : bool;  (** per-release-point MOV compaction (default on) *)
}

val default_options : options

(** [apply ?options ~bs ~es prog] runs the pass.
    @raise Unsound when the instrumented program fails {!Checker.check}
    (indicates a bug in this library, not a user error).
    @raise Invalid_argument when [bs + es] cannot cover the program's
    registers. *)
val apply : ?options:options -> bs:int -> es:int -> Gpu_isa.Program.t -> plan

(** [compile ?options ~bs ~es facts] is {!apply} on [facts]' program,
    reading its analyses from [facts]. It also returns the facts of the
    transformed program, whose widened liveness the check has read. The
    rewrite (permutation, mov-compaction, injection) is kept with [facts]
    per options and [bs], so compiling that [bs] again, at any [es], only
    runs the check. *)
val compile :
  ?options:options -> bs:int -> es:int -> Gpu_analysis.Facts.t ->
  plan * Gpu_analysis.Facts.t

(** An identity plan (baseline / zero-sized extended set). *)
val identity : Gpu_isa.Program.t -> plan

val pp_plan : Format.formatter -> plan -> unit
