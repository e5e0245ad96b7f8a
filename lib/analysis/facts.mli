(** Everything the compiler passes know about one program, computed at
    most once: the CFG (with instruction-level successors and
    predecessors), dominators and post-dominators, liveness with and
    without divergence widening, and the reconvergence table.

    Each fact is computed on first use, so a consumer pays only for what
    it reads. A compile builds one [t] for its source program and hands
    it to every pass that reads that program; a pass that rewrites the
    program asks for the facts of its output with {!derive}. A source and
    the programs derived from it compute dominance once per distinct
    block graph, so a register renaming shares its source's dominators.
    A pass whose result depends only on the program and its own arguments
    can keep it in {!memo}, so a caller that runs it twice on one source
    (the fuzz oracle's forced split and its techniques) computes it once.
    A [t] is meant for one compile on one domain: it is never stored or
    marshalled. *)

type t

(** The facts of a source program. *)
val of_program : Gpu_isa.Program.t -> t

(** [derive t prog] is the facts of [prog], a program rewritten from
    [program t]; when [prog] equals [program t], its analyses are [t]'s.
    [program (derive t prog)] is [prog]. *)
val derive : t -> Gpu_isa.Program.t -> t

(** Results a pass keeps with the facts of its input; each pass extends
    this type with a constructor of its own. *)
type memo = ..

(** [memo t key compute] is the result kept under [key] with [t], or
    [compute ()], kept when it returns. [key] must name every argument the
    result depends on besides [program t]. *)
val memo : t -> string -> (unit -> memo) -> memo

val program : t -> Gpu_isa.Program.t
val cfg : t -> Cfg.t
val dominance : t -> Dominance.t

(** [liveness ?widen t] ([widen] defaults to [true], as in
    {!Liveness.analyze}). *)
val liveness : ?widen:bool -> t -> Liveness.t

(** {!Reconv.table} of the program. *)
val reconv : t -> int array
