(* Host-side instrumentation the benchmark wraps around one run, from
   outside the program. It sees only what the program makes public:
   the [Apps.Memif.t] record an app is handed, the run's [Sim.Stats]
   and the OCaml GC. *)

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

(* Mean host cost of one back-to-back pair of clock reads, subtracted
   from sampled call timings. *)
let clock_overhead_ns () =
  let n = 200_000 in
  let t0 = clock_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (clock_ns ()))
  done;
  float_of_int (clock_ns () - t0) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Timed-phase marks.

   Every app brackets its timed phase with [flush (); now ()]. A copy
   of the Memif record whose [now] also stamps the host clock therefore
   marks where set-up ends (the first call) and the timed phase ends
   (the last call), with nothing added to the access path. Each call
   also copies the tracked counters, so their timed-phase deltas
   exclude population before it and verification after it. *)

type marks = {
  names : string array;
  cells : Sim.Stats.counter array;
  at_first : int array;
  at_last : int array;
  histos : Sim.Histogram.t list;
  on_stamp : first:bool -> unit;
  mutable first_ns : int;  (** host clock at the first [now]; 0 = none yet *)
  mutable last_ns : int;
  mutable first_sim : Sim.Time.t;
  mutable last_sim : Sim.Time.t;
  mutable gc_first : Gc.stat;
  mutable gc_last : Gc.stat;
}

(* Only counters the booted system registered are resolved:
   [Sim.Stats.counter] would create a missing one, and an extra zero
   counter would break the traced/untraced comparison. *)
let existing stats names =
  let have = Sim.Stats.counters stats in
  List.filter (fun n -> List.mem_assoc n have) names

let marks ?(on_stamp = fun ~first:_ -> ()) stats ~counters ~histos =
  let names = Array.of_list (existing stats counters) in
  let gc = Gc.quick_stat () in
  {
    names;
    cells = Array.map (Sim.Stats.counter stats) names;
    at_first = Array.make (Array.length names) 0;
    at_last = Array.make (Array.length names) 0;
    (* Timed-phase histograms start empty: they are reset at the first
       [now]. Histograms are reporting-only in the simulator, so this
       does not feed back into the model. *)
    histos =
      List.filter_map
        (fun n ->
          if List.mem_assoc n (Sim.Stats.histograms stats) then
            Some (Sim.Stats.histo stats n)
          else None)
        histos;
    on_stamp;
    first_ns = 0;
    last_ns = 0;
    first_sim = Sim.Time.zero;
    last_sim = Sim.Time.zero;
    gc_first = gc;
    gc_last = gc;
  }

let stamp mk ~sim =
  let t = clock_ns () in
  mk.last_sim <- sim;
  Array.iteri (fun i c -> mk.at_last.(i) <- Sim.Stats.cget c) mk.cells;
  mk.gc_last <- Gc.quick_stat ();
  let first = mk.first_ns = 0 in
  if first then begin
    mk.first_ns <- t;
    mk.first_sim <- sim;
    Array.blit mk.at_last 0 mk.at_first 0 (Array.length mk.at_last);
    mk.gc_first <- mk.gc_last;
    List.iter Sim.Histogram.reset mk.histos
  end;
  mk.on_stamp ~first;
  mk.last_ns <- t

let with_now mk (m : Apps.Memif.t) =
  {
    m with
    Apps.Memif.now =
      (fun () ->
        let sim = m.Apps.Memif.now () in
        stamp mk ~sim;
        sim);
  }

(** Timed-phase deltas of the tracked counters, by name. *)
let phase_deltas mk =
  Array.to_list
    (Array.mapi (fun i n -> (n, mk.at_last.(i) - mk.at_first.(i))) mk.names)

(* ------------------------------------------------------------------ *)
(* Traced Memif wrapper.

   Counts every data-path call and the bytes it asks for. Timing every
   call would cost more than the calls themselves, so only one call in
   [sample_every] reads the clock and the kernel's fault counters, and
   is filed as a miss when a fault counter moved during it. The number
   of misses itself comes from the fault counters' timed-phase deltas. *)

let sample_every = 64

(* Tally slots, kept in one array so a timed-phase snapshot is a blit. *)
let calls = 0
let bytes = 1
let hit_n = 2
let hit_ns = 3
let miss_n = 4
let miss_ns = 5
let slots = 6

type tracer = {
  faults : Sim.Stats.counter array;
  tally : int array;
  t_first : int array;
  t_last : int array;
}

let fault_counters =
  [ "major_faults"; "minor_faults"; "fetch_waits"; "zero_fill_faults" ]

let tracer stats =
  {
    faults =
      Array.of_list
        (List.map (Sim.Stats.counter stats) (existing stats fault_counters));
    tally = Array.make slots 0;
    t_first = Array.make slots 0;
    t_last = Array.make slots 0;
  }

(* Hook for {!marks}' [on_stamp]: the tracer's timed-phase window is the
   same as the counters'. *)
let snapshot tr ~first =
  Array.blit tr.tally 0 tr.t_last 0 slots;
  if first then Array.blit tr.tally 0 tr.t_first 0 slots

(** Timed-phase value of one tally slot. *)
let phase tr slot = tr.t_last.(slot) - tr.t_first.(slot)

let fault_count tr =
  let s = ref 0 in
  for i = 0 to Array.length tr.faults - 1 do
    s := !s + Sim.Stats.cget (Array.unsafe_get tr.faults i)
  done;
  !s

let bump a i d = Array.unsafe_set a i (Array.unsafe_get a i + d)

(* Count the call; [true] when this one is sampled. *)
let count tr ~n =
  let a = tr.tally in
  bump a calls 1;
  bump a bytes n;
  Array.unsafe_get a calls land (sample_every - 1) = 0

let sampled tr call =
  let f0 = fault_count tr in
  let t0 = clock_ns () in
  let r = call () in
  let d = clock_ns () - t0 in
  let a = tr.tally in
  if fault_count tr <> f0 then begin
    bump a miss_n 1;
    bump a miss_ns d
  end
  else begin
    bump a hit_n 1;
    bump a hit_ns d
  end;
  r

let w1 tr ~n f a = if count tr ~n then sampled tr (fun () -> f a) else f a
let w2 tr ~n f a b = if count tr ~n then sampled tr (fun () -> f a b) else f a b

let w3 tr ~n f a b c =
  if count tr ~n then sampled tr (fun () -> f a b c) else f a b c

(* [read_bytes] / [write_bytes]: the length argument is the byte count. *)
let wbytes tr f a buf off len =
  if count tr ~n:len then sampled tr (fun () -> f a buf off len)
  else f a buf off len

let wrap tr (m : Apps.Memif.t) =
  let open Apps.Memif in
  {
    m with
    malloc = w1 tr ~n:0 m.malloc;
    free = w1 tr ~n:0 m.free;
    read_u8 = w1 tr ~n:1 m.read_u8;
    read_u16 = w1 tr ~n:2 m.read_u16;
    read_u32 = w1 tr ~n:4 m.read_u32;
    read_u64 = w1 tr ~n:8 m.read_u64;
    write_u8 = w2 tr ~n:1 m.write_u8;
    write_u16 = w2 tr ~n:2 m.write_u16;
    write_u32 = w2 tr ~n:4 m.write_u32;
    write_u64 = w2 tr ~n:8 m.write_u64;
    read_bytes = wbytes tr m.read_bytes;
    write_bytes = wbytes tr m.write_bytes;
    read_u8_at = w2 tr ~n:1 m.read_u8_at;
    read_u16_at = w2 tr ~n:2 m.read_u16_at;
    read_u32_at = w2 tr ~n:4 m.read_u32_at;
    read_u64_at = w2 tr ~n:8 m.read_u64_at;
    write_u8_at = w3 tr ~n:1 m.write_u8_at;
    write_u16_at = w3 tr ~n:2 m.write_u16_at;
    write_u32_at = w3 tr ~n:4 m.write_u32_at;
    write_u64_at = w3 tr ~n:8 m.write_u64_at;
    touch = w1 tr ~n:0 m.touch;
  }
