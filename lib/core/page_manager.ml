(* Int-keyed tables for the per-page bookkeeping below. None of them
   is ever iterated, so the hash only has to spread keys: a
   multiplicative mix puts entropy into the low bits the table indexes
   by, even for page-strided vpns. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = (x * 0x9E3779B97F4A7C1) lsr 17
end)

(* The LRU clock: a FIFO ring of VPNs with membership tracking so a
   page is queued at most once. Each entry carries a logical sequence
   number ([popped + len] when pushed), so a queued vpn's position is
   [seq - popped] in O(1).

   [prefix] is the page manager's clean-prefix cursor, kept here
   because every pop must shift it: no entry before it is [Local] and
   dirty. [rewind] pulls it back to a vpn that just became dirty. *)
module Clock = struct
  type t = {
    mutable data : int array; (* capacity stays a power of two *)
    mutable head : int;
    mutable len : int;
    mutable popped : int;
    mutable prefix : int;
    queued : int Itbl.t; (* vpn -> seq *)
  }

  let create () =
    {
      data = Array.make 256 0;
      head = 0;
      len = 0;
      popped = 0;
      prefix = 0;
      queued = Itbl.create 256;
    }

  let length t = t.len
  let mem t vpn = Itbl.mem t.queued vpn

  let push t vpn =
    if not (mem t vpn) then begin
      let cap = Array.length t.data in
      if t.len = cap then begin
        let nd = Array.make (cap * 2) 0 in
        for i = 0 to t.len - 1 do
          nd.(i) <- t.data.((t.head + i) land (cap - 1))
        done;
        t.data <- nd;
        t.head <- 0
      end;
      t.data.((t.head + t.len) land (Array.length t.data - 1)) <- vpn;
      Itbl.replace t.queued vpn (t.popped + t.len);
      t.len <- t.len + 1
    end

  let pop t =
    if t.len = 0 then None
    else begin
      let vpn = t.data.(t.head) in
      t.head <- (t.head + 1) land (Array.length t.data - 1);
      t.len <- t.len - 1;
      t.popped <- t.popped + 1;
      if t.prefix > 0 then t.prefix <- t.prefix - 1;
      Itbl.remove t.queued vpn;
      Some vpn
    end

  (* [i < length t]. *)
  let nth t i = t.data.((t.head + i) land (Array.length t.data - 1))

  let rewind t vpn =
    match Itbl.find t.queued vpn with
    | seq -> if seq - t.popped < t.prefix then t.prefix <- seq - t.popped
    | exception Not_found -> ()
end

(* Reclaim-path stats cells, resolved once at [create]: eviction and
   write-back run per page under memory pressure. *)
type hot_stats = {
  c_evictions : Sim.Stats.counter;
  c_writebacks : Sim.Stats.counter;
  c_wb_failures : Sim.Stats.counter;
  c_reclaim_gave_up : Sim.Stats.counter;
  c_reclaim_stalls : Sim.Stats.counter;
  c_reclaim_stall_ns : Sim.Stats.counter;
}

type t = {
  eng : Sim.Engine.t;
  stats : Sim.Stats.t;
  hot : hot_stats;
  pt : Vmem.Page_table.t;
  frames : Vmem.Frame.t;
  evict_qp : Rdma.Qp.t;
  reclaim_guide : Guide.reclaim_guide option;
  clock : Clock.t;
  vector_log : (int * int) list Itbl.t;
  mutable next_log_id : int;
  wb_inflight : unit Itbl.t;
  mutable invalidate : int -> unit;
  (* Conservative count of dirty resident pages (may overcount, never
     undercounts): gates the cleaner pass, so dirty pages it must skip
     (write-back in flight, or no live data) are not re-probed every
     period. An overcount self-heals when a full scan finds nothing to
     write. *)
  mutable dirty_hint : int;
  (* Host-side diagnostic: clock entries the cleaner has examined. *)
  mutable probes : int;
  frames_avail : Sim.Condvar.t;
  reclaim_work : Sim.Condvar.t;
  wb_done : Sim.Condvar.t;
  mutable running : bool;
  low : int;
  high : int;
}

let create ~eng ~stats ~pt ~frames ~evict_qp ?reclaim_guide () =
  let total = Vmem.Frame.total frames in
  (* The free pool must absorb a demand fetch plus a full prefetch
     window between reclaimer wake-ups, or prefetching starves. *)
  let low =
    Int.max
      (2 + Params.readahead_max_window)
      (int_of_float (Params.free_low_watermark *. float_of_int total))
  in
  let high =
    Int.max (3 * low)
      (int_of_float (Params.free_high_watermark *. float_of_int total))
  in
  {
    eng;
    stats;
    hot =
      {
        c_evictions = Sim.Stats.counter stats "evictions";
        c_writebacks = Sim.Stats.counter stats "writebacks";
        c_wb_failures = Sim.Stats.counter stats "writeback_failures";
        c_reclaim_gave_up = Sim.Stats.counter stats "reclaim_gave_up";
        c_reclaim_stalls = Sim.Stats.counter stats "reclaim_stalls";
        c_reclaim_stall_ns = Sim.Stats.counter stats "reclaim_stall_ns";
      };
    pt;
    frames;
    evict_qp;
    reclaim_guide;
    clock = Clock.create ();
    vector_log = Itbl.create 64;
    next_log_id = 1;
    wb_inflight = Itbl.create 16;
    invalidate = (fun _ -> ());
    dirty_hint = 0;
    probes = 0;
    frames_avail = Sim.Condvar.create eng;
    reclaim_work = Sim.Condvar.create eng;
    wb_done = Sim.Condvar.create eng;
    running = false;
    low;
    high;
  }

let set_invalidate t f = t.invalidate <- f
let free_frames t = Vmem.Frame.free_count t.frames
let cleaner_probes t = t.probes

(* Every clean->dirty transition of a page lands here: it bumps the
   hint and pulls the clean-prefix cursor back to the page's clock
   slot. Redundant calls only overcount the hint. *)
let note_dirtied t vpn =
  t.dirty_hint <- t.dirty_hint + 1;
  Clock.rewind t.clock vpn

let note_mapped t vpn =
  Clock.push t.clock vpn;
  if Vmem.Pte.dirty (Vmem.Page_table.get t.pt vpn) then note_dirtied t vpn

let vector_segments t ~payload =
  match Itbl.find_opt t.vector_log payload with
  | Some segs ->
      Itbl.remove t.vector_log payload;
      segs
  | None -> invalid_arg "Page_manager.vector_segments: unknown payload"

let log_vector t segs =
  let id = t.next_log_id in
  t.next_log_id <- t.next_log_id + 1;
  Itbl.replace t.vector_log id segs;
  id

let guide_segments t vpn =
  match t.reclaim_guide with
  | None -> None
  | Some g -> (
      match g.Guide.rg_live_segments (Vmem.Addr.base vpn) with
      | None -> None
      | Some [] -> Some [] (* page holds no live data: nothing to move *)
      | Some segs ->
          let segs = Guide.clamp_segments segs in
          (* A full-page vector is just an ordinary page. *)
          if segs = Guide.whole_page then None else Some segs)

(* Drop a local page without any RDMA: either it is clean (remote copy
   current) or the guide says nothing on it is live. With a guide,
   leave an Action PTE so the refetch moves only live bytes. *)
let drop_without_write t vpn pte =
  if Vmem.Pte.dirty pte then t.dirty_hint <- Int.max 0 (t.dirty_hint - 1);
  let frame = Vmem.Pte.frame pte in
  let new_pte =
    match guide_segments t vpn with
    | Some segs -> Vmem.Pte.make_action ~payload:(log_vector t segs)
    | None -> Vmem.Pte.make_remote ()
  in
  Vmem.Page_table.set t.pt vpn new_pte;
  t.invalidate vpn;
  Vmem.Frame.free t.frames frame;
  Sim.Stats.cincr t.hot.c_evictions;
  Sim.Condvar.broadcast t.frames_avail

(* Write a dirty page back. [then_evict] distinguishes the reclaimer's
   clean-then-drop path from the periodic cleaner (which leaves the
   page mapped). *)
let writeback t vpn pte ~then_evict =
  if not (Itbl.mem t.wb_inflight vpn) then begin
    let frame = Vmem.Pte.frame pte in
    Itbl.replace t.wb_inflight vpn ();
    (* Clear dirty before the copy is snapshotted: a store racing with
       the write-back must re-dirty the page so we notice. *)
    Vmem.Page_table.update t.pt vpn Vmem.Pte.clear_dirty;
    t.dirty_hint <- Int.max 0 (t.dirty_hint - 1);
    t.invalidate vpn;
    (* The guide trims the write-back for the cleaner as well as for
       eviction (§4.4: the cleaner writes only the used area). The
       caller guarantees there is at least one live segment. *)
    let segs_opt =
      match guide_segments t vpn with
      | Some [] -> assert false
      | other -> other
    in
    let base = Vmem.Addr.base vpn in
    (* Segments address the frame pool's slab directly (loff is a slab
       byte offset) — no per-writeback view allocation. *)
    let foff = Vmem.Frame.offset t.frames frame in
    let segs =
      match segs_opt with
      | Some segs ->
          List.map
            (fun (off, len) ->
              {
                Rdma.Qp.raddr = Int64.add base (Int64.of_int off);
                loff = foff + off;
                len;
              })
            segs
      | None ->
          [ { Rdma.Qp.raddr = base; loff = foff; len = Vmem.Addr.page_size } ]
    in
    let buf = Vmem.Frame.slab t.frames in
    (* Permanent write failure: nothing reached the memory node (the
       transfer only applies on success), so the remote copy is the
       consistent pre-write page. Re-dirty the PTE — clear_dirty above
       promised a write-back that never happened — and put the page
       back on the clock for a later attempt. Reclaim skips wb_inflight
       pages, so nobody can have dropped the frame meanwhile. *)
    let on_error () =
      Itbl.remove t.wb_inflight vpn;
      Sim.Stats.cincr t.hot.c_wb_failures;
      (match Vmem.Pte.tag (Vmem.Page_table.get t.pt vpn) with
      | Vmem.Pte.Local ->
          Vmem.Page_table.update t.pt vpn Vmem.Pte.set_dirty;
          Clock.push t.clock vpn;
          note_dirtied t vpn
      | Vmem.Pte.Unmapped | Vmem.Pte.Remote | Vmem.Pte.Fetching
      | Vmem.Pte.Action ->
          ());
      Sim.Condvar.broadcast t.wb_done
    in
    Rdma.Qp.post_write ~on_error t.evict_qp ~segs ~buf ~on_complete:(fun () ->
        Itbl.remove t.wb_inflight vpn;
        Sim.Stats.cincr t.hot.c_writebacks;
        (if then_evict then
           let pte' = Vmem.Page_table.get t.pt vpn in
           match Vmem.Pte.tag pte' with
           | Vmem.Pte.Local when not (Vmem.Pte.dirty pte') ->
               let new_pte =
                 match segs_opt with
                 | Some segs -> Vmem.Pte.make_action ~payload:(log_vector t segs)
                 | None -> Vmem.Pte.make_remote ()
               in
               Vmem.Page_table.set t.pt vpn new_pte;
               t.invalidate vpn;
               Vmem.Frame.free t.frames (Vmem.Pte.frame pte');
               Sim.Stats.cincr t.hot.c_evictions;
               Sim.Condvar.broadcast t.frames_avail
           | Vmem.Pte.Local ->
               (* Re-dirtied while in flight: keep it resident. *)
               Clock.push t.clock vpn
           | Vmem.Pte.Unmapped | Vmem.Pte.Remote | Vmem.Pte.Fetching
           | Vmem.Pte.Action ->
               ());
        Sim.Condvar.broadcast t.wb_done)
  end

(* One clock step. Returns [true] if it made progress towards freeing
   a frame (evicted, or started an eviction write-back). *)
let clock_step t =
  match Clock.pop t.clock with
  | None -> false
  | Some vpn -> (
      let pte = Vmem.Page_table.get t.pt vpn in
      match Vmem.Pte.tag pte with
      | Vmem.Pte.Unmapped | Vmem.Pte.Remote | Vmem.Pte.Action ->
          (* Stale entry; page already gone. *)
          false
      | Vmem.Pte.Fetching ->
          Clock.push t.clock vpn;
          false
      | Vmem.Pte.Local ->
          if Itbl.mem t.wb_inflight vpn then begin
            Clock.push t.clock vpn;
            false
          end
          else if Vmem.Pte.accessed pte then begin
            (* Second chance: strip the accessed bit and recycle. *)
            Vmem.Page_table.update t.pt vpn Vmem.Pte.clear_accessed;
            t.invalidate vpn;
            Clock.push t.clock vpn;
            false
          end
          else if Vmem.Pte.dirty pte then begin
            (match guide_segments t vpn with
            | Some [] -> drop_without_write t vpn pte
            | Some _ | None -> writeback t vpn pte ~then_evict:true);
            true
          end
          else begin
            drop_without_write t vpn pte;
            true
          end)

let reclaim_until t target =
  let no_progress = ref 0 in
  let continue_ = ref true in
  while !continue_ && free_frames t < target do
    if clock_step t then no_progress := 0
    else begin
      incr no_progress;
      if !no_progress > Clock.length t.clock + 1 then
        if Itbl.length t.wb_inflight > 0 then begin
          (* Everything evictable is already being written back; wait
             for a completion rather than spinning. *)
          Sim.Condvar.wait t.wb_done;
          no_progress := 0
        end
        else begin
          Sim.Stats.cincr t.hot.c_reclaim_gave_up;
          continue_ := false
        end
    end;
    (* Model the per-page CPU cost of scanning/evicting. *)
    Sim.Engine.sleep t.eng (Sim.Time.ns Params.evict_page_cost_ns)
  done

let reclaimer_fiber t () =
  while t.running do
    if free_frames t < t.low then reclaim_until t t.high
    else Sim.Condvar.wait t.reclaim_work
  done

(* One cleaner pass: write back up to [cleaner_batch] dirty pages,
   starting at the clean-prefix cursor. Entries before it fail the
   filter below (none is Local and dirty), so this picks exactly the
   pages a scan from the clock head would. The cursor then advances
   over every leading entry left not Local-and-dirty; a posted
   write-back qualifies, as [writeback] clears the dirty bit before
   returning. Nothing in the loop suspends, so no pop can shift the
   clock under [i]. *)
let cleaner_pass t =
  let c = t.clock in
  let scanned = ref 0 and i = ref c.Clock.prefix in
  while !scanned < Params.cleaner_batch && !i < Clock.length c do
    let vpn = Clock.nth c !i in
    let pte = Vmem.Page_table.get t.pt vpn in
    t.probes <- t.probes + 1;
    let dirty = Vmem.Pte.tag pte = Vmem.Pte.Local && Vmem.Pte.dirty pte in
    let left_dirty =
      if
        dirty
        && (not (Itbl.mem t.wb_inflight vpn))
        && guide_segments t vpn <> Some []
      then begin
        writeback t vpn pte ~then_evict:false;
        incr scanned;
        false
      end
      else dirty
    in
    if (not left_dirty) && !i = c.Clock.prefix then c.Clock.prefix <- !i + 1;
    incr i
  done;
  (* Ground truth from a complete scan: nothing dirty (in-flight
     write-backs were dirty-cleared when posted). *)
  if !scanned = 0 && !i >= Clock.length c then t.dirty_hint <- 0;
  !scanned

let cleaner_fiber t () =
  while t.running do
    Sim.Engine.sleep t.eng Params.cleaner_period;
    (* Skipping the scan when no page can be dirty has no simulated
       effect: a scan that finds nothing posts no write-backs and
       sleeps for zero scanned pages. *)
    if t.running && t.dirty_hint > 0 then begin
      let scanned = cleaner_pass t in
      if scanned > 0 then Sim.Engine.sleep t.eng (Sim.Time.ns (scanned * 120))
    end
  done

let start t =
  if not t.running then begin
    t.running <- true;
    Sim.Engine.spawn t.eng ~name:"pm.reclaimer" (reclaimer_fiber t);
    Sim.Engine.spawn t.eng ~name:"pm.cleaner" (cleaner_fiber t)
  end

let stop t =
  t.running <- false;
  Sim.Condvar.broadcast t.reclaim_work

let try_alloc_frame t =
  let r = Vmem.Frame.alloc t.frames in
  if free_frames t < t.low then Sim.Condvar.broadcast t.reclaim_work;
  r

let alloc_frame t =
  match try_alloc_frame t with
  | Some f -> f
  | None ->
      Sim.Stats.cincr t.hot.c_reclaim_stalls;
      let started = Sim.Engine.now t.eng in
      let frame = ref None in
      Sim.Condvar.broadcast t.reclaim_work;
      Sim.Condvar.wait_for t.frames_avail (fun () ->
          match Vmem.Frame.alloc t.frames with
          | Some f ->
              frame := Some f;
              true
          | None ->
              Sim.Condvar.broadcast t.reclaim_work;
              false);
      let stalled = Sim.Time.sub (Sim.Engine.now t.eng) started in
      Sim.Stats.cadd t.hot.c_reclaim_stall_ns (Int64.to_int stalled);
      (match !frame with Some f -> f | None -> assert false)

let release_frame t frame =
  Vmem.Frame.free t.frames frame;
  Sim.Condvar.broadcast t.frames_avail

let quiesce t =
  Sim.Condvar.wait_for t.wb_done (fun () -> Itbl.length t.wb_inflight = 0)
