(** Register liveness analysis (RegMutex §III-A1).

    Standard backward dataflow at instruction granularity, optionally
    followed by the paper's divergence-conservative widening: within each
    branch region (a conditional-branch block up to, but excluding, its
    immediate post-dominator),

    - a register live across the branch is considered live throughout the
      whole region (threads of a warp may serialize either path first), and
    - a register defined inside the region and live at the post-dominator's
      entry is considered live throughout the region.

    Widening is iterated to a fixpoint because enlarging one region can
    enlarge the live sets feeding a nested one. *)

type t = {
  live_in : Gpu_isa.Regset.t array;   (** live before each instruction *)
  live_out : Gpu_isa.Regset.t array;  (** live after each instruction *)
}

(** The backward dataflow over [cfg]'s program, without widening. *)
val of_cfg : Cfg.t -> t

(** [widened cfg dom narrow] widens a copy of [narrow] ([of_cfg cfg])
    to the fixpoint; [dom] is [cfg]'s dominance. *)
val widened : Cfg.t -> Dominance.t -> t -> t

(** [analyze ?widen prog] runs the analysis from scratch; [widen]
    (default [true]) enables the divergence-conservative widening.
    {!Facts} computes each program's liveness once for a whole compile. *)
val analyze : ?widen:bool -> Gpu_isa.Program.t -> t

(** [pressure_at t i] is the number of registers live across instruction
    [i], i.e. [max (card live_in) (card live_out)] — the registers a
    physical allocation must hold while [i] executes. *)
val pressure_at : t -> int -> int

(** Per-instruction pressure profile. *)
val profile : t -> int array

(** Maximum of {!profile}. *)
val max_pressure : t -> int

(** [live_at_barriers prog t] is the maximum pressure at any [Bar]
    instruction (0 when the kernel has none) — the second deadlock rule
    constrains [|Bs|] to at least this value. *)
val live_at_barriers : Gpu_isa.Program.t -> t -> int

val pp : Gpu_isa.Program.t -> Format.formatter -> t -> unit
