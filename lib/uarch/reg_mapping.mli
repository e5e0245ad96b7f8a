(** Architected → physical register mapping of the Operand Collector Unit
    (Figure 6).

    Physical indices are in warp-register units (packs of 32 thread
    registers): the GTX480 register file holds 1024 such packs per SM.

    Baseline: [Y = X + Coeff × Widx].

    RegMutex: the architected index is compared against [|Bs|]; base-set
    registers map to [Widx × |Bs| + X], extended-set registers map to
    [SRP_offset + LUT(Widx) × |Es| + (X − |Bs|)]. *)

type config = {
  bs : int;          (** base register set size, per thread *)
  es : int;          (** extended register set size, per thread *)
  srp_offset : int;  (** first physical pack of the SRP region *)
}

type error =
  | Out_of_range          (** architected index ≥ |Bs| + |Es| *)
  | Extended_not_acquired (** extended access while holding no section *)

(** [baseline ~coeff ~widx ~x] is the stock mapping. *)
val baseline : coeff:int -> widx:int -> x:int -> int

(** [regmutex cfg ~widx ~section ~x] maps architected register [x] of warp
    [widx]; [section] is the SRP section held by the warp (from the LUT),
    if any. *)
val regmutex : config -> widx:int -> section:int option -> x:int -> (int, error) result

(** [physical cfg ~widx ~section ~x] is {!regmutex} without the result
    box, for per-issue checks that must not allocate: [section] is the
    held section, or a negative number when the warp holds none, and an
    error comes back as a negative code ({!error_of_code} names it).
    Valid arguments ([widx >= 0], sections [>= 0]) map to indices [>= 0]. *)
val physical : config -> widx:int -> section:int -> x:int -> int

(** The error a negative {!physical} result stands for.
    @raise Invalid_argument on any other number. *)
val error_of_code : int -> error

(** [srp_offset_for cfg ~resident_warps] computes the canonical SRP base:
    physical packs [0 .. resident_warps×bs) hold base sets, the SRP region
    starts right after. *)
val srp_offset_for : bs:int -> resident_warps:int -> int

val pp_error : Format.formatter -> error -> unit
