(** The PTX-like instruction set executed by the simulator.

    Instructions operate on architected registers holding warp-uniform
    integer values (see DESIGN.md for why warp granularity is the right
    granularity for register-allocation studies). Branch targets are absolute
    instruction indices; {!Builder} resolves symbolic labels to indices. *)

(** Integer ALU operations. *)
type binop =
  | Add | Sub | Mul | Div | Rem
  | Min | Max
  | And | Or | Xor | Shl | Shr

type unop = Neg | Not | Abs

(** Comparison operators; results are 0 or 1 in the destination register. *)
type cmpop = Eq | Ne | Lt | Le | Gt | Ge

(** Memory spaces. [Global] is device memory (long, contended latency);
    [Shared] is per-CTA scratchpad (short latency); [Spill] is the
    compiler-reserved register-spill window carved out of the same
    scratchpad by the RegDem demotion pass — same latency as [Shared],
    but addressed relative to the window base and excluded from the
    architectural store trace. *)
type space = Global | Shared | Spill

(** Read-only hardware values available as operands. *)
type special =
  | Tid      (** linear thread index of the warp's lane 0 within its CTA; a
                 lane's own thread id is [Tid + Lane_id] *)
  | Ctaid    (** CTA index within the grid *)
  | Ntid     (** threads per CTA *)
  | Nctaid   (** CTAs in the grid *)
  | Warp_id  (** warp index within its CTA *)
  | Lane_id  (** lane index within the warp (0 in the warp-uniform model,
                 the per-lane index under [--simt]) *)

type operand =
  | Reg of int        (** architected register *)
  | Imm of int        (** immediate constant *)
  | Special of special
  | Param of int      (** kernel launch parameter [i] *)

type t =
  | Bin of binop * int * operand * operand   (** [dst = a op b] *)
  | Un of unop * int * operand               (** [dst = op a] *)
  | Mad of int * operand * operand * operand (** [dst = a * b + c] *)
  | Mov of int * operand                     (** [dst = a] *)
  | Cmp of cmpop * int * operand * operand   (** [dst = (a op b) ? 1 : 0] *)
  | Sel of int * operand * operand * operand (** [dst = cond <> 0 ? a : b] *)
  | Load of space * int * operand * int      (** [dst = mem.(addr + ofs)] *)
  | Store of space * operand * operand * int (** [mem.(addr + ofs) = value] *)
  | Jump of int                              (** unconditional branch *)
  | Jump_if of operand * int                 (** branch when operand <> 0 *)
  | Jump_ifz of operand * int                (** branch when operand = 0 *)
  | Bar                                      (** CTA-wide barrier, [bar.sync] *)
  | Acquire  (** RegMutex: obtain an SRP section for the extended set *)
  | Release  (** RegMutex: return the SRP section to the pool *)
  | Exit                                     (** warp termination *)

(** Latency classes used by the timing model. *)
type lat_class =
  | Lat_alu      (** simple integer op *)
  | Lat_complex  (** multiply / divide / MAD *)
  | Lat_shared   (** shared-memory access *)
  | Lat_global   (** global-memory access *)
  | Lat_control  (** branches, barrier, acquire/release, exit *)

val lat_class : t -> lat_class

(** Registers written by the instruction. *)
val defs : t -> Regset.t

(** Registers read by the instruction. *)
val uses : t -> Regset.t

(** All registers referenced (defs ∪ uses). *)
val regs : t -> Regset.t

(** [is_branch i] holds for [Jump], [Jump_if] and [Jump_ifz]. *)
val is_branch : t -> bool

(** Branch target, if any. *)
val target : t -> int option

(** [with_target i t] replaces the branch target. Identity for
    non-branches. *)
val with_target : t -> int -> t

(** [map_regs f i] renames every register reference (defs and uses)
    through [f]. Used by the compaction pass. *)
val map_regs : (int -> int) -> t -> t

(** [map_target f i] rewrites the branch target through [f]. *)
val map_target : (int -> int) -> t -> t

(** Structural equality. *)
val equal : t -> t -> bool

(** Printable name of a memory space ("global" / "shared" / "spill"). *)
val space_name : space -> string

(** [add_to_buffer b i] appends the assembly text of [i] to [b] — the
    syntax {!Parser} reads back; {!to_string} and {!pp} print the same
    text. *)
val add_to_buffer : Buffer.t -> t -> unit

val pp_operand : Format.formatter -> operand -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
