(** Registry of every experiment in the evaluation — the tables, figures
    and ablations — run by the CLI's [sweep] subcommand and by the
    end-to-end benchmark. *)

type entry = {
  name : string;  (** short id, e.g. ["fig7"] *)
  doc : string;   (** one-line description *)
  print : Exp_config.t -> unit;
}

(** Every experiment, in presentation order. *)
val all : entry list

val names : string list
val find : string -> entry option

(** Print each entry under a banner line. *)
val run : Exp_config.t -> entry list -> unit
