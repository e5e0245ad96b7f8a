(* An open-addressed int table: [keys.(i)] is a masked (30-bit, so
   non-negative) address or [-1] for an empty slot, [vals.(i)] its word.
   Linear probing from a multiplicative hash; the capacity is a power of
   two, doubled when the table is half full. A run starts with a few
   slots and grows with the addresses its kernel writes, instead of
   allocating a large table up front. *)
type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable shift : int;  (* 63 - log2 capacity: the hash keeps the top bits *)
  mutable count : int;
}

let initial_bits = 4

let create () =
  let cap = 1 lsl initial_bits in
  { keys = Array.make cap (-1); vals = Array.make cap 0;
    shift = 63 - initial_bits; count = 0 }

let mask addr = addr land 0x3fffffff

(* Knuth multiplicative hash with an xor-shift finaliser: the shift folds
   high bits into the low ones so low-bit tests (parity, small masks) vary
   across addresses too. Stable pseudo-random contents for unwritten
   addresses. *)
let default_value addr =
  let v = mask addr * 2654435761 in
  (v lxor (v lsr 15)) land 0xffff

(* Fibonacci hashing: the top bits of the product spread consecutive
   addresses across the table. *)
let home t addr = (addr * 0x2545F4914F6CDD1D) lsr t.shift

(* The slot holding [addr], or the empty slot where it would go. The
   table is never full, so the probe ends. *)
let find_slot t addr =
  let keys = t.keys in
  let m = Array.length keys - 1 in
  let i = ref (home t addr) in
  while
    let k = Array.unsafe_get keys !i in
    k <> addr && k >= 0
  do
    i := (!i + 1) land m
  done;
  !i

let read_global t addr =
  let addr = mask addr in
  let i = find_slot t addr in
  if Array.unsafe_get t.keys i = addr then Array.unsafe_get t.vals i
  else default_value addr

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap 0;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun j k ->
      if k >= 0 then begin
        let i = find_slot t k in
        t.keys.(i) <- k;
        t.vals.(i) <- vals.(j)
      end)
    keys

let write_global t addr v =
  let addr = mask addr in
  let i = find_slot t addr in
  if Array.unsafe_get t.keys i = addr then Array.unsafe_set t.vals i v
  else begin
    Array.unsafe_set t.keys i addr;
    Array.unsafe_set t.vals i v;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.keys then grow t
  end

let footprint t = t.count

let written t =
  let acc = ref [] in
  Array.iteri (fun i k -> if k >= 0 then acc := (k, t.vals.(i)) :: !acc) t.keys;
  List.sort compare !acc
