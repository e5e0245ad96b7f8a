(** Fixed-width hardware bitmasks with Find-First-Zero, the primitive the
    RegMutex issue stage uses to locate a free SRP section (Figure 5).

    A mask is created with [width] addressable bits; bits at index
    [sections..width-1] can be pre-set permanently, modelling SRP bitmask
    bits that correspond to no physical section ("those bits … are set at
    the beginning of the kernel placement and stay intact"). *)

type t

(** [create ~width ~valid] makes a mask of [width] bits where only the
    first [valid] bits are usable; the rest are permanently set.
    @raise Invalid_argument when [width] exceeds the native-int capacity
    or [valid > width]. *)
val create : width:int -> valid:int -> t

val width : t -> int
val valid : t -> int

val set : t -> int -> unit
val clear : t -> int -> unit

(** @raise Invalid_argument when clearing a permanently-set bit. *)

val test : t -> int -> bool

(** Index of the least-significant zero bit, if any usable bit is clear. *)
val ffz : t -> int option

(** The usable bits as one word: bit [i] is set iff usable bit [i] is.
    Permanently-set padding bits are masked off. *)
val set_bits : t -> int

(** Number of set bits among the usable bits. *)
val popcount : t -> int

val pp : Format.formatter -> t -> unit
