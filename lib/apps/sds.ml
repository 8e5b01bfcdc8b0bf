let header_size = 8
let total_size n = header_size + n + 1

let create (mem : Memif.t) payload =
  let n = Bytes.length payload in
  let base = mem.Memif.malloc (total_size n) in
  mem.Memif.write_u32_at base 0 n;
  mem.Memif.write_u32_at base 4 n;
  mem.Memif.write_bytes (Int64.add base (Int64.of_int header_size)) payload 0 n;
  mem.Memif.write_u8_at base (header_size + n) 0;
  base

let len (mem : Memif.t) base = mem.Memif.read_u32_at base 0
let data_addr base = Int64.add base (Int64.of_int header_size)

(* Doubling growth keeps this on the cold-constructor path (as
   Dict.make_scratch): a reused reply buffer is replaced at most
   O(log max_len) times, and a fresh one grows to exactly [len]. *)
let make_reply ~old len = Bytes.create (Int.max len (2 * old))

let read_into (mem : Memif.t) base buf =
  let n = len mem base in
  if Bytes.length !buf < n then buf := make_reply ~old:(Bytes.length !buf) n;
  mem.Memif.read_bytes (data_addr base) !buf 0 n;
  n

(* [get] materializes the string for the caller, who owns the result.
   Callers on a steady-state path reuse one buffer via [read_into]
   instead (Serving's workers; see also Dict.key_equals). *)
let get mem base =
  let buf = ref Bytes.empty in
  ignore (read_into mem base buf : int);
  !buf

let free (mem : Memif.t) base = mem.Memif.free base
