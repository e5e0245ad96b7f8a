(** Figure 2: the illustrative two-warp example — a machine with 48
    hardware registers per thread and a kernel demanding 31. Without
    RegMutex the warps serialize (62 > 48); with |Bs| = |Es| = 16 the
    base phases overlap and only the extended phases contend for the
    single SRP section. Prints both runs and an allocation timeline. *)

type result = {
  baseline_cycles : int;
  regmutex_cycles : int;
  baseline_timeline : int array;  (** allocated registers per time bucket *)
  regmutex_timeline : int array;
}

(** Both runs, each read back from the engine's result store when it
    holds it ({!Engine.memo}). *)
val run : unit -> result
val print : Exp_config.t -> unit
