(** The Shared Register Pool acquire/release engine of RegMutex's issue
    stage (§III-B1): a warp-status bitmask, an SRP bitmask searched with
    FFZ, and a warp → section lookup table.

    Acquire and release are idempotent, as the paper requires: an acquire
    by a warp already holding a section, or a release by a warp holding
    none, is a no-op. *)

type t

type acquire_result =
  | Granted of int  (** section index newly assigned *)
  | Stall           (** no free section; warp must retry when rescheduled *)
  | Already_held of int

type release_result =
  | Released of int
  | Not_held

(** [create ~n_warps ~sections] builds the engine for an SM hosting up to
    [n_warps] warps with [sections] usable SRP sections
    ([sections <= n_warps]; excess bitmask bits are permanently set). *)
val create : n_warps:int -> sections:int -> t

val acquire : t -> warp:int -> acquire_result
val release : t -> warp:int -> release_result

(** Section currently held by the warp, if any. *)
val holds : t -> warp:int -> int option

(** [held t ~warp] is {!holds} as an int, [-1] when the warp holds no
    section; it allocates nothing. *)
val held : t -> warp:int -> int

val n_sections : t -> int
val free_sections : t -> int
val in_use : t -> int

(** [reset_warp t ~warp] force-releases on warp exit (hardware reclaims
    the section when the CTA retires). Returns the freed section, if any. *)
val reset_warp : t -> warp:int -> int option

(** Independent bookkeeping cross-check, for the fuzz oracle's SRP
    conservation invariant: every status bit maps through the LUT to a
    distinct acquired section within range, and the status and SRP
    popcounts agree (so [in_use + free_sections = n_sections] cannot
    drift). Walks the raw bitmasks rather than the accessors. *)
val consistent : t -> bool

val pp : Format.formatter -> t -> unit
