module Program = Gpu_isa.Program
module Instr = Gpu_isa.Instr

type block = {
  id : int;
  first : int;
  last : int;
  succs : int list;
  preds : int list;
}

type t = {
  prog : Program.t;
  blocks : block array;
  block_of_instr : int array;
  isuccs : int list array;
  ipreds : int list array;
}

let instr_succs prog i =
  let n = Program.length prog in
  match Program.get prog i with
  | Instr.Exit -> []
  | Instr.Jump t -> [ t ]
  | Instr.Jump_if (_, t) | Instr.Jump_ifz (_, t) ->
      if i + 1 < n then [ t; i + 1 ] else [ t ]
  | Instr.Bin _ | Instr.Un _ | Instr.Mad _ | Instr.Mov _ | Instr.Cmp _
  | Instr.Sel _ | Instr.Load _ | Instr.Store _ | Instr.Bar
  | Instr.Acquire | Instr.Release ->
      if i + 1 < n then [ i + 1 ] else []

let of_program prog =
  let n = Program.length prog in
  let isuccs = Array.init n (instr_succs prog) in
  let ipreds = Array.make n [] in
  for i = 0 to n - 1 do
    List.iter (fun s -> ipreds.(s) <- i :: ipreds.(s)) isuccs.(i)
  done;
  let leader = Array.make n false in
  leader.(0) <- true;
  for i = 0 to n - 1 do
    let instr = Program.get prog i in
    (match Instr.target instr with Some t -> leader.(t) <- true | None -> ());
    let ends_block = Instr.is_branch instr || instr = Instr.Exit in
    if ends_block && i + 1 < n then leader.(i + 1) <- true
  done;
  let block_of_instr = Array.make n 0 in
  let bounds = ref [] in
  let start = ref 0 in
  for i = 1 to n - 1 do
    if leader.(i) then begin
      bounds := (!start, i - 1) :: !bounds;
      start := i
    end
  done;
  bounds := (!start, n - 1) :: !bounds;
  let bounds = Array.of_list (List.rev !bounds) in
  Array.iteri
    (fun id (first, last) ->
      for i = first to last do
        block_of_instr.(i) <- id
      done)
    bounds;
  let succs_of (_, last) =
    List.sort_uniq compare (List.map (fun i -> block_of_instr.(i)) isuccs.(last))
  in
  let preds = Array.make (Array.length bounds) [] in
  Array.iteri
    (fun id b -> List.iter (fun s -> preds.(s) <- id :: preds.(s)) (succs_of b))
    bounds;
  let blocks =
    Array.mapi
      (fun id (first, last) ->
        { id; first; last; succs = succs_of (first, last); preds = List.rev preds.(id) })
      bounds
  in
  { prog; blocks; block_of_instr; isuccs; ipreds }

let n_blocks t = Array.length t.blocks
let block t id = t.blocks.(id)

let instrs _t b =
  let rec go i acc = if i < b.first then acc else go (i - 1) (i :: acc) in
  go b.last []

let conditional_blocks t =
  Array.to_list t.blocks
  |> List.filter (fun b ->
         match Program.get t.prog b.last with
         | Instr.Jump_if _ | Instr.Jump_ifz _ -> true
         | _ -> false)

let exit_blocks t =
  Array.to_list t.blocks
  |> List.filter (fun b ->
         let rec has i = i <= b.last && (Program.get t.prog i = Instr.Exit || has (i + 1)) in
         has b.first)

let region t ~from ~avoiding =
  let visited = Array.make (n_blocks t) false in
  let rec visit id =
    if id <> avoiding && not visited.(id) then begin
      visited.(id) <- true;
      List.iter visit t.blocks.(id).succs
    end
  in
  List.iter visit t.blocks.(from).succs;
  let out = ref [] in
  for id = n_blocks t - 1 downto 0 do
    if visited.(id) then out := id :: !out
  done;
  !out
