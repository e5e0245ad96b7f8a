(** An assembled kernel program: a flat array of instructions with resolved
    branch targets, plus derived register metadata. *)

type t = private {
  name : string;
  body : Instr.t array;
  n_regs : int;  (** 1 + highest architected register index referenced *)
}

exception Invalid of string

(** [create ~name body] validates and wraps an instruction array.

    Validation rules:
    - the body is non-empty and contains at least one [Exit];
    - every branch target is a valid instruction index;
    - every register index is within {!Regset.max_reg};
    - the last instruction cannot fall through (it is a [Jump] or [Exit]).

    @raise Invalid when a rule is violated. *)
val create : name:string -> Instr.t array -> t

val length : t -> int
val get : t -> int -> Instr.t

(** [insert_before prog inserts] inserts instruction lists before given
    indices and retargets every branch. [inserts] maps an original
    instruction index to the instructions to place immediately before it; a
    branch that targeted index [i] will target the first inserted
    instruction, so code jumped into executes the inserted prefix. Indices
    may repeat; later entries for the same index are placed after earlier
    ones. An index equal to [length prog] appends at the end. *)
val insert_before : t -> (int * Instr.t list) list -> t

(** [map_instrs f prog] rebuilds the program with [f] applied to each
    instruction (targets must be preserved by [f]). *)
val map_instrs : (int -> Instr.t -> Instr.t) -> t -> t

(** Number of static occurrences satisfying the predicate. *)
val count : (Instr.t -> bool) -> t -> int

val equal : t -> t -> bool

(** The assembly listing {!Parser.parse} reads back: a
    [kernel NAME (N regs)] header, then one [%4d: instr] line per pc,
    each ending in a newline. *)
val to_string : t -> string

(** [to_string] for Format callers. *)
val pp : Format.formatter -> t -> unit
