(** Minimal fixed-width ASCII table rendering for the experiment figures. *)

type align = Left | Right

(** [render ~columns rows] lays out the table; [columns] are
    [(header, alignment)] pairs, every row must have the same arity. *)
val render : columns:(string * align) list -> string list list -> string

(** Percentage cell, e.g. [pct 12.34 = "12.3%"]. *)
val pct : float -> string

(** Occupancy cell from a [0,1] ratio, e.g. [occ 0.667 = "67%"]. *)
val occ : float -> string

val int_cell : int -> string

(** Arithmetic mean. *)
val mean : float list -> float
