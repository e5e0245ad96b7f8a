(** Control-flow graph over basic blocks of a {!Gpu_isa.Program}. *)

type block = {
  id : int;           (** dense block index, entry block is 0 *)
  first : int;        (** index of the first instruction *)
  last : int;         (** index of the last instruction (inclusive) *)
  succs : int list;   (** successor block ids *)
  preds : int list;   (** predecessor block ids *)
}

type t = {
  prog : Gpu_isa.Program.t;
  blocks : block array;
  block_of_instr : int array;  (** instruction index -> block id *)
  isuccs : int list array;     (** instruction index -> {!instr_succs} *)
  ipreds : int list array;     (** instruction index -> its predecessors *)
}

(** Build the CFG. Leaders are instruction 0, branch targets, and
    instructions following a branch or [Exit]. *)
val of_program : Gpu_isa.Program.t -> t

val n_blocks : t -> int
val block : t -> int -> block

(** Instruction indices of a block, in order. *)
val instrs : t -> block -> int list

(** [instr_succs prog i] is the instruction-level successor list of
    instruction [i]; {!of_program} tabulates it as [isuccs]. *)
val instr_succs : Gpu_isa.Program.t -> int -> int list

(** Blocks whose last instruction is a conditional branch. *)
val conditional_blocks : t -> block list

(** Blocks containing an [Exit]. *)
val exit_blocks : t -> block list

(** [reachable t ~from ~avoiding] is the set of block ids reachable from
    the successors of [from] along edges that do not enter the block
    [avoiding] (pass [-1] to avoid nothing). Used to delimit branch
    regions for divergence widening. *)
val region : t -> from:int -> avoiding:int -> int list
