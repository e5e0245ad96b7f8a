(** Sets of architected register indices.

    A set is represented as a bit mask inside a single native [int], which
    restricts register indices to the range [0, 61]. Fermi-class GPUs cap
    architected registers per thread at 63, and every kernel in the RegMutex
    evaluation uses at most 44, so the compact representation is both
    sufficient and very fast for the per-instruction dataflow performed by
    liveness analysis. *)

type t

(** Largest register index a set can hold. *)
val max_reg : int

val empty : t

(** [singleton r] is the set containing exactly [r].
    @raise Invalid_argument if [r] is outside [0, max_reg]. *)
val singleton : int -> t

val add : int -> t -> t
val remove : int -> t -> t
val mem : int -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t

(** [diff a b] is the set of registers in [a] but not in [b]. *)
val diff : t -> t -> t

(** Number of members, by a constant-time population count. *)
val cardinal : t -> int
val is_empty : t -> bool
val equal : t -> t -> bool
val subset : t -> t -> bool
val of_list : int list -> t

(** Ascending list of member indices. *)
val to_list : t -> int list

(** [iter], [fold] and [exists] visit the members in ascending order,
    one step per member; [exists] stops at the first hit. *)
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val exists : (int -> bool) -> t -> bool

(** Smallest member. @raise Not_found on the empty set. *)
val min_elt : t -> int

(** Largest member. @raise Not_found on the empty set. *)
val max_elt : t -> int

(** [above n s] is the subset of [s] with indices [>= n]. *)
val above : int -> t -> t

(** [below n s] is the subset of [s] with indices [< n]. *)
val below : int -> t -> t

(** [pp] prints as [{r0, r3, r7}]. *)
val pp : Format.formatter -> t -> unit
