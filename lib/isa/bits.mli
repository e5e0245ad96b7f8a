(** Constant-time bit queries on words that hold bits [0..61] of a native
    [int] (register sets, hardware bitmasks, lane masks). Every argument
    must be non-negative and below [2{^62}]. *)

(** Number of set bits. *)
val popcount : int -> int

(** Index of the lowest set bit of a non-zero word. *)
val lowest : int -> int

(** Index of the highest set bit of a non-zero word. *)
val highest : int -> int
