(* The four workloads. Each one builds its inputs from the seed in
   [setup] and then offers an endless sequence of ops; the runner in
   [Bench] times them. *)

module Engine = Experiments.Engine
module Suite = Experiments.Suite
module Exp_config = Experiments.Exp_config
module Runner = Regmutex.Runner
module Technique = Regmutex.Technique

type size = Full | Tiny

type op = {
  id : string;
  run : unit -> string;
      (** the op's output digest; raises when the op fails *)
}

type instance = {
  pass_len : int;
      (** ops in one pass over the inputs; op [i] and op [i + pass_len]
          do the same work, and runs end on a pass boundary *)
  op : int -> op;
  finish : unit -> (unit, string) result;  (** untimed checks after the timed ops *)
  probe_inputs : unit -> Layers.input list;
}

type t = { name : string; setup : size -> seed:int -> instance }

(* --- scratch space -------------------------------------------------------- *)

(* Everything the benchmark writes stays under this directory of the tree
   it runs in. *)
let scratch_dir = "_e2e"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let tmp_root () =
  Filename.concat scratch_dir (Printf.sprintf "tmp-%d" (Unix.getpid ()))

let tmp_count = ref 0

let fresh_dir () =
  incr tmp_count;
  let d = Filename.concat (tmp_root ()) (string_of_int !tmp_count) in
  mkdir_p d;
  d

let cleanup () = remove_tree (tmp_root ())

(* Run [f] with file descriptor 1 redirected; returns what it printed. *)
let capture f =
  let file = Filename.concat (tmp_root ()) "stdout" in
  flush stdout;
  Format.pp_print_flush Format.std_formatter ();
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Format.pp_print_flush Format.std_formatter ();
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  In_channel.with_open_bin file In_channel.input_all

(* --- inputs ---------------------------------------------------------------- *)

let shuffle ~seed l =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* The quick configuration is `regmutex sweep --quick`; the tiny one
   (every grid at its 4-CTA floor) keeps the smoke test fast. *)
let config = function
  | Full -> Exp_config.quick
  | Tiny -> { Exp_config.quick with Exp_config.grid_scale = 0.01 }

let entries = function
  | Full -> Suite.all
  | Tiny -> List.filter_map Suite.find [ "table1"; "fig7"; "storage" ]

let spec_inputs cfg specs ~uniform =
  List.map
    (fun spec ->
      { Layers.arch = Exp_config.eval_arch cfg spec;
        kernel = Exp_config.kernel_of cfg spec;
        uniform })
    specs

let table1 = function
  | Full -> Workloads.Registry.all
  | Tiny -> [ List.hd Workloads.Registry.all ]

(* --- sweeps ---------------------------------------------------------------- *)

(* Print one Suite entry with its output captured; returns the output's
   digest and the number of cells the entry simulated. *)
let print_entry cfg (e : Suite.entry) =
  let before = Engine.simulations () in
  let out =
    Span.with_span ~profile:true ("figure." ^ e.Suite.name) (fun () ->
        capture (fun () -> e.Suite.print cfg))
  in
  (Digest.to_hex (Digest.string out), Engine.simulations () - before)

(* A sweep is one pass of ops, one per Suite entry. Entries share cells,
   so an entry's cost depends on the entries before it: the order is the
   Suite's, whatever the seed, and [pass_start] resets the caches before
   the first entry of every pass. *)
let sweep_ops cfg entries ~pass_start ~check =
  let entries = Array.of_list entries in
  let n = Array.length entries in
  fun i ->
    let e = entries.(i mod n) in
    { id = e.Suite.name;
      run =
        (fun () ->
          if i mod n = 0 then pass_start ();
          let digest, sims = print_entry cfg e in
          check e.Suite.name digest sims) }

(* `regmutex sweep --quick` the first time: an empty in-memory cache and
   a fresh store every pass. *)
let sweep_cold =
  { name = "sweep-cold";
    setup =
      (fun size ~seed:_ ->
        let cfg = config size and entries = entries size in
        (* The store's version tag is computed once per process. *)
        ignore (Experiments.Result_store.version_tag ());
        let last = Hashtbl.create 16 and simulated = ref 0 in
        { pass_len = List.length entries;
          op =
            sweep_ops cfg entries
              ~pass_start:(fun () ->
                Engine.clear ();
                Engine.set_cache_dir (Some (fresh_dir ())))
              ~check:(fun name digest sims ->
                Hashtbl.replace last name digest;
                simulated := !simulated + sims;
                Printf.sprintf "%s/%d" digest sims);
          finish =
            (fun () ->
              (* The store the last pass wrote must replay the same
                 figures without simulating. *)
              Engine.clear ();
              let replayed = List.map (print_entry cfg) entries in
              if !simulated = 0 then Error "cold sweeps simulated nothing"
              else if List.exists (fun (_, sims) -> sims > 0) replayed then
                Error "replay from the store simulated"
              else if
                List.exists2
                  (fun (e : Suite.entry) (d, _) -> Hashtbl.find_opt last e.Suite.name <> Some d)
                  entries replayed
              then Error "replay output differs from the cold sweep"
              else Ok ());
          probe_inputs = (fun () -> spec_inputs cfg (table1 size) ~uniform:true) }) }

(* `regmutex sweep --quick` the second time: every cell read back from
   the store one cold sweep in set-up wrote. *)
let sweep_warm =
  { name = "sweep-warm";
    setup =
      (fun size ~seed:_ ->
        let cfg = config size and entries = entries size in
        Engine.clear ();
        Engine.set_cache_dir (Some (fresh_dir ()));
        let reference =
          List.map (fun (e : Suite.entry) -> (e.Suite.name, fst (print_entry cfg e))) entries
        in
        Engine.clear ();
        { pass_len = List.length entries;
          op =
            sweep_ops cfg entries ~pass_start:Engine.clear ~check:(fun name digest sims ->
                if sims > 0 then
                  failwith (Printf.sprintf "warm replay simulated %d cells" sims);
                if List.assoc name reference <> digest then
                  failwith "warm replay output differs from the populating sweep";
                digest);
          finish = (fun () -> Ok ());
          probe_inputs = (fun () -> spec_inputs cfg (table1 size) ~uniform:true) }) }

(* --- simt ------------------------------------------------------------------ *)

let simt_options = { Technique.default_options with Technique.simt = true }

(* `regmutex run W -t T --simt` for Table I plus BFS-Frontier under every
   technique, in registry order: the peak heap depends on the order. *)
let simt =
  { name = "simt";
    setup =
      (fun size ~seed:_ ->
        let cfg = config size in
        let specs = table1 size @ Workloads.Registry.divergent in
        let techniques =
          match size with
          | Full -> Technique.all
          | Tiny -> [ Technique.Regmutex ]
        in
        let cells =
          Array.of_list
            (List.concat_map
               (fun spec ->
                 List.map
                   (fun t ->
                     ( spec.Workloads.Spec.name ^ "/" ^ Technique.name t,
                       Exp_config.eval_arch cfg spec,
                       Exp_config.kernel_of cfg spec,
                       t ))
                   techniques)
               specs)
        in
        let n = Array.length cells in
        { pass_len = n;
          op =
            (fun i ->
              let id, arch, kernel, t = cells.(i mod n) in
              { id;
                run =
                  (fun () ->
                    let r = Runner.execute ~options:simt_options arch t kernel in
                    if r.Runner.stats.Gpu_sim.Stats.timed_out then failwith "timeout";
                    Runner.fingerprint r) });
          finish = (fun () -> Ok ());
          probe_inputs =
            (fun () ->
              spec_inputs cfg (table1 size) ~uniform:true
              @ spec_inputs cfg Workloads.Registry.divergent ~uniform:false) }) }

(* --- fuzz ------------------------------------------------------------------ *)

(* The oracle's own architecture: one SM, short memory latencies. *)
let fuzz_arch =
  { Gpu_uarch.Arch_config.gtx480 with
    Gpu_uarch.Arch_config.n_sms = 1;
    dram_interval = 1.0 }

(* The fuzz oracle, one generated kernel per op. *)
let fuzz =
  { name = "fuzz";
    setup =
      (fun size ~seed ->
        let pool_size = match size with Full -> 300 | Tiny -> 4 in
        (* The first generator seeds of the warp-uniform families, in an
           order the benchmark seed picks. The set itself does not depend
           on the seed: the oracle's cost per kernel is heavy-tailed, and
           a fresh sample per run would bury a small change in sampling
           noise. The divergent family is left out: RegMutex under --simt
           trips the extended-set verifier on some divergent kernels, and
           a workload must not fail ops by design (see README.md). *)
        let cases =
          Seq.ints 0
          |> Seq.map (fun s -> Fuzz.Gen.generate ~seed:s)
          |> Seq.filter (fun c -> c.Fuzz.Gen.family <> Fuzz.Gen.Divergent)
          |> Seq.take pool_size |> List.of_seq
        in
        let pool = shuffle ~seed cases in
        { pass_len = pool_size;
          op =
            (fun i ->
              let case = pool.(i mod pool_size) in
              { id = string_of_int case.Fuzz.Gen.seed;
                run =
                  (fun () ->
                    match (Fuzz.Oracle.test_case case).Fuzz.Oracle.failures with
                    | [] -> "ok"
                    | fs ->
                        failwith
                          (String.concat ","
                             (List.sort_uniq compare
                                (List.map
                                   (fun f -> Fuzz.Oracle.kind_name f.Fuzz.Oracle.kind)
                                   fs)))) });
          finish = (fun () -> Ok ());
          probe_inputs =
            (fun () ->
              List.filteri (fun i _ -> i < 100) cases
              |> List.map (fun case ->
                     { Layers.arch = fuzz_arch; kernel = Fuzz.Gen.kernel case; uniform = true }))
        }) }

let all = [ sweep_cold; sweep_warm; simt; fuzz ]
let find name = List.find_opt (fun w -> w.name = name) all
