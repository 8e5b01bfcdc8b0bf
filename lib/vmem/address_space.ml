type vma = { base : int64; len : int64; ddc : bool; vma_name : string }

(* Live mappings sit in [vmas.(0) .. vmas.(n - 1)], sorted by base.
   [mmap] is a bump allocator (simulated address space is effectively
   infinite), so a new mapping always has the highest base and goes at
   the end; lookups binary-search. Slots past [n] hold [vacant] so a
   removed mapping is not kept alive. *)
type t = { mutable vmas : vma array; mutable n : int; mutable next : int64 }

let default_base = 0x10000000L
let vacant = { base = 0L; len = 0L; ddc = false; vma_name = "" }

let create ?(base = default_base) () =
  if not (Addr.is_page_aligned base) then
    invalid_arg "Address_space.create: base not page aligned";
  { vmas = Array.make 8 vacant; n = 0; next = base }

let mmap t ~len ~ddc ?(name = "anon") () =
  if len <= 0 then invalid_arg "Address_space.mmap: len <= 0";
  let base = t.next in
  let len64 = Addr.round_up (Int64.of_int len) in
  if t.n = Array.length t.vmas then begin
    let grown = Array.make (2 * t.n) vacant in
    Array.blit t.vmas 0 grown 0 t.n;
    t.vmas <- grown
  end;
  t.vmas.(t.n) <- { base; len = len64; ddc; vma_name = name };
  t.n <- t.n + 1;
  (* Guard page between mappings catches stray pointer bugs. *)
  t.next <- Int64.add (Int64.add base len64) (Int64.of_int Addr.page_size);
  base

(* Index of the last mapping whose base is <= [addr], or -1. Bases in
   [0, lo) are <= addr and bases in [hi, n) are > addr. A top-level
   recursion, so no closure is allocated per lookup. *)
let rec floor_search t addr lo hi =
  if lo >= hi then lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    if Int64.compare t.vmas.(mid).base addr <= 0 then floor_search t addr (mid + 1) hi
    else floor_search t addr lo mid

let floor_index t addr = floor_search t addr 0 t.n

(* Index of the mapping containing [addr], or -1. *)
let index t addr =
  let i = floor_index t addr in
  if i >= 0 then
    let v = t.vmas.(i) in
    if Int64.compare addr (Int64.add v.base v.len) < 0 then i else -1
  else -1

let munmap t base =
  let i = floor_index t base in
  if i < 0 || not (Int64.equal t.vmas.(i).base base) then raise Not_found;
  let v = t.vmas.(i) in
  Array.blit t.vmas (i + 1) t.vmas i (t.n - i - 1);
  t.n <- t.n - 1;
  t.vmas.(t.n) <- vacant;
  v

let find t addr =
  let i = index t addr in
  if i < 0 then None else Some t.vmas.(i)

let is_ddc t addr =
  let i = index t addr in
  i >= 0 && t.vmas.(i).ddc

let vmas t = List.init t.n (fun i -> t.vmas.(i))
let top t = t.next
