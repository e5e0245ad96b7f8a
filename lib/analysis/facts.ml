module Program = Gpu_isa.Program

type memo = ..

type t = {
  prog : Program.t;
  cfg : Cfg.t Lazy.t;
  dom : Dominance.t Lazy.t;
  reconv : int array Lazy.t;
  narrow : Liveness.t Lazy.t;
  widened : Liveness.t Lazy.t;
  doms : (Digest.t * Dominance.t) list ref;
      (* dominators by block graph, shared by a source and every program
         derived from it *)
  memos : (string * memo) list ref;
}

let fresh doms prog =
  let cfg = lazy (Cfg.of_program prog) in
  let dom =
    lazy
      (let cfg = Lazy.force cfg in
       let key = Digest.string (Marshal.to_string cfg.Cfg.blocks [ Marshal.No_sharing ]) in
       match List.assoc_opt key !doms with
       | Some d -> d
       | None ->
           let d = Dominance.compute cfg in
           doms := (key, d) :: !doms;
           d)
  in
  let narrow = lazy (Liveness.of_cfg (Lazy.force cfg)) in
  { prog; cfg; dom; narrow; doms; memos = ref [];
    reconv = lazy (Reconv.of_cfg (Lazy.force cfg) (Lazy.force dom));
    widened =
      lazy (Liveness.widened (Lazy.force cfg) (Lazy.force dom) (Lazy.force narrow)) }

let of_program prog = fresh (ref []) prog

(* A rewrite that changed nothing (an identity permutation, say) keeps
   [t]'s analyses, held with the caller's program value so its output has
   the shape it would have had anyway. *)
let derive t prog =
  if Program.equal prog t.prog then { t with prog; memos = ref [] }
  else fresh t.doms prog

let memo t key compute =
  match List.assoc_opt key !(t.memos) with
  | Some m -> m
  | None ->
      let m = compute () in
      t.memos := (key, m) :: !(t.memos);
      m

let program t = t.prog
let cfg t = Lazy.force t.cfg
let dominance t = Lazy.force t.dom
let liveness ?(widen = true) t = Lazy.force (if widen then t.widened else t.narrow)
let reconv t = Lazy.force t.reconv
