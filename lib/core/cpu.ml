exception Segmentation_fault of int64

exception Page_lost of int64
(* A demand fetch failed [Params.fault_refetch_max] consecutive times:
   the bytes behind this address are gone (every replica of the
   backing shard is dead). Raised instead of blocking the faulting
   core forever — data loss must surface, not hang. *)

let tlb_entries = 64
let tlb_mask = tlb_entries - 1

(* Accumulated fast-path time is flushed to the engine at least this
   often, so background fibers interleave realistically. *)
let pending_cap_ns = 10_000

type core = {
  core_id : int;
  trk : int; (* trace track for this core's fault timeline *)
  tlb_vpn : int array;
  tlb_off : int array; (* slab byte offset of the cached page *)
  tlb_written : bool array;
  mutable pending : int;
}

type t = {
  eng : Sim.Engine.t;
  pt : Vmem.Page_table.t;
  frames : Vmem.Frame.t;
  slab : Sim.Bigbuf.t; (* the frame pool's backing slab, cached *)
  cores : core array;
  mutable fault : core -> int -> unit;
  mutable store : core -> int -> bool -> unit;
}

let make_core id =
  {
    core_id = id;
    trk = Trace.track (Printf.sprintf "cpu%d" id);
    tlb_vpn = Array.make tlb_entries (-1);
    tlb_off = Array.make tlb_entries 0;
    tlb_written = Array.make tlb_entries false;
    pending = 0;
  }

let create ~eng ~pt ~frames ~cores =
  {
    eng;
    pt;
    frames;
    slab = Vmem.Frame.slab frames;
    cores = Array.init cores make_core;
    fault = (fun _ _ -> invalid_arg "Cpu: no fault handler");
    store = (fun _ _ _ -> ());
  }

let set_handlers t ~fault ~store =
  t.fault <- fault;
  t.store <- store

let core_id cs = cs.core_id
let track cs = cs.trk

(* TLB arrays are always indexed by [vpn land tlb_mask], which is in
   range by construction: use unchecked loads on the hit path. *)
let invalidate t vpn =
  Array.iter
    (fun cs ->
      let i = vpn land tlb_mask in
      if Array.unsafe_get cs.tlb_vpn i = vpn then
        Array.unsafe_set cs.tlb_vpn i (-1))
    t.cores

let core_state t core =
  if core < 0 || core >= Array.length t.cores then invalid_arg "Cpu: bad core";
  t.cores.(core)

let flush_core t cs =
  if cs.pending > 0 then begin
    let p = cs.pending in
    cs.pending <- 0;
    Sim.Engine.sleep t.eng (Sim.Time.ns p)
  end

let charge t cs ns =
  cs.pending <- cs.pending + ns;
  if cs.pending >= pending_cap_ns then flush_core t cs

let flush t ~core = flush_core t (core_state t core)
let compute t ~core ns = charge t (core_state t core) ns

(* ------------------------------------------------------------------ *)
(* Translation                                                         *)

(* The TLB caches the page's byte offset into the frame slab; a hit is
   two array loads and integer arithmetic — no heap objects. A miss
   walks the page table; a translation fault pays exception delivery
   and hands the page to the kernel's fault handler, then re-walks. *)
let frame_off_slow t cs vpn ~write =
  flush_core t cs;
  let rec loop () =
    match Vmem.Mmu.access t.pt ~vpn ~write with
    | Vmem.Mmu.Frame f ->
        let off = Vmem.Frame.offset t.frames f in
        let i = vpn land tlb_mask in
        Array.unsafe_set cs.tlb_vpn i vpn;
        Array.unsafe_set cs.tlb_off i off;
        Array.unsafe_set cs.tlb_written i write;
        cs.pending <- cs.pending + 20;
        off
    | Vmem.Mmu.Fault _ ->
        Sim.Engine.sleep t.eng Vmem.Mmu.exception_cost;
        t.fault cs vpn;
        loop ()
  in
  loop ()

(* The MMU just set the dirty bit; the kernel's store hook runs after
   the walk. *)
let frame_off_slow_write t cs vpn =
  let off = frame_off_slow t cs vpn ~write:true in
  t.store cs vpn false;
  off

(* [charge] may flush the pending-time accumulator, which sleeps the
   fiber; the reclaimer can run in that window, evict the page, and
   invalidate this very TLB slot. Re-validate the entry after charging
   — returning the cached offset unconditionally would aim the access
   at a freed (or re-allocated) frame and the store would be silently
   lost when the page is next fetched. *)
let page_off_for_read t cs vpn =
  let i = vpn land tlb_mask in
  if Array.unsafe_get cs.tlb_vpn i = vpn then begin
    charge t cs Params.mem_access_ns;
    if Array.unsafe_get cs.tlb_vpn i = vpn then Array.unsafe_get cs.tlb_off i
    else frame_off_slow t cs vpn ~write:false
  end
  else frame_off_slow t cs vpn ~write:false

let page_off_for_write t cs vpn =
  let i = vpn land tlb_mask in
  if Array.unsafe_get cs.tlb_vpn i = vpn then begin
    if not (Array.unsafe_get cs.tlb_written i) then begin
      (* First store through a read-loaded translation: the hardware
         walker would set the dirty bit now. *)
      Vmem.Page_table.update t.pt vpn Vmem.Pte.set_dirty;
      Array.unsafe_set cs.tlb_written i true;
      t.store cs vpn true
    end;
    charge t cs Params.mem_access_ns;
    if Array.unsafe_get cs.tlb_vpn i = vpn then Array.unsafe_get cs.tlb_off i
    else frame_off_slow_write t cs vpn
  end
  else frame_off_slow_write t cs vpn

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let split addr = (Vmem.Addr.vpn addr, Vmem.Addr.offset addr)

let check_span off size =
  if off + size > Vmem.Addr.page_size then
    invalid_arg "Cpu: scalar access straddles a page boundary"

(* Scalar accessors: translation yields a slab offset whose page-sized
   span is valid by construction, and [check_span] bounds [off], so the
   unsafe slab accessors cannot escape the mapped frame. *)

let read_u8 t ~core addr =
  let cs = core_state t core in
  let vpn, off = split addr in
  Sim.Bigbuf.unsafe_get_u8 t.slab (page_off_for_read t cs vpn + off)

let read_u16 t ~core addr =
  let cs = core_state t core in
  let vpn, off = split addr in
  check_span off 2;
  Sim.Bigbuf.unsafe_get_u16_le t.slab (page_off_for_read t cs vpn + off)

let read_u32 t ~core addr =
  let cs = core_state t core in
  let vpn, off = split addr in
  check_span off 4;
  Sim.Bigbuf.unsafe_get_u32_le t.slab (page_off_for_read t cs vpn + off)

let read_u64 t ~core addr =
  let cs = core_state t core in
  let vpn, off = split addr in
  check_span off 8;
  Sim.Bigbuf.unsafe_get_u64_le t.slab (page_off_for_read t cs vpn + off)

let write_u8 t ~core addr v =
  let cs = core_state t core in
  let vpn, off = split addr in
  Sim.Bigbuf.unsafe_set_u8 t.slab (page_off_for_write t cs vpn + off) (v land 0xFF)

let write_u16 t ~core addr v =
  let cs = core_state t core in
  let vpn, off = split addr in
  check_span off 2;
  Sim.Bigbuf.unsafe_set_u16_le t.slab (page_off_for_write t cs vpn + off) v

let write_u32 t ~core addr v =
  let cs = core_state t core in
  let vpn, off = split addr in
  check_span off 4;
  Sim.Bigbuf.unsafe_set_u32_le t.slab (page_off_for_write t cs vpn + off) v

let write_u64 t ~core addr v =
  let cs = core_state t core in
  let vpn, off = split addr in
  check_span off 8;
  Sim.Bigbuf.unsafe_set_u64_le t.slab (page_off_for_write t cs vpn + off) v

(* [_at] variants: base address plus an int byte offset, splitting the
   effective address with int arithmetic only. *)

let eff base off = Int64.to_int base + off

let read_u8_at t ~core base off =
  let cs = core_state t core in
  let a = eff base off in
  Sim.Bigbuf.unsafe_get_u8 t.slab (page_off_for_read t cs (a lsr 12) + (a land 4095))

let read_u16_at t ~core base off =
  let cs = core_state t core in
  let a = eff base off in
  let o = a land 4095 in
  check_span o 2;
  Sim.Bigbuf.unsafe_get_u16_le t.slab (page_off_for_read t cs (a lsr 12) + o)

let read_u32_at t ~core base off =
  let cs = core_state t core in
  let a = eff base off in
  let o = a land 4095 in
  check_span o 4;
  Sim.Bigbuf.unsafe_get_u32_le t.slab (page_off_for_read t cs (a lsr 12) + o)

let read_u64_at t ~core base off =
  let cs = core_state t core in
  let a = eff base off in
  let o = a land 4095 in
  check_span o 8;
  Sim.Bigbuf.unsafe_get_u64_le t.slab (page_off_for_read t cs (a lsr 12) + o)

let write_u8_at t ~core base off v =
  let cs = core_state t core in
  let a = eff base off in
  Sim.Bigbuf.unsafe_set_u8 t.slab
    (page_off_for_write t cs (a lsr 12) + (a land 4095))
    (v land 0xFF)

let write_u16_at t ~core base off v =
  let cs = core_state t core in
  let a = eff base off in
  let o = a land 4095 in
  check_span o 2;
  Sim.Bigbuf.unsafe_set_u16_le t.slab (page_off_for_write t cs (a lsr 12) + o) v

let write_u32_at t ~core base off v =
  let cs = core_state t core in
  let a = eff base off in
  let o = a land 4095 in
  check_span o 4;
  Sim.Bigbuf.unsafe_set_u32_le t.slab (page_off_for_write t cs (a lsr 12) + o) v

let write_u64_at t ~core base off v =
  let cs = core_state t core in
  let a = eff base off in
  let o = a land 4095 in
  check_span o 8;
  Sim.Bigbuf.unsafe_set_u64_le t.slab (page_off_for_write t cs (a lsr 12) + o) v

let bulk t ~core addr buf off len ~write =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Cpu: bulk access outside buffer";
  let cs = core_state t core in
  let pos = ref addr and done_ = ref 0 in
  while !done_ < len do
    let vpn, poff = split !pos in
    let n = Int.min (len - !done_) (Vmem.Addr.page_size - poff) in
    if write then
      let page_off = page_off_for_write t cs vpn in
      Sim.Bigbuf.blit_from_bytes buf ~src_off:(off + !done_) t.slab
        ~dst_off:(page_off + poff) ~len:n
    else begin
      let page_off = page_off_for_read t cs vpn in
      Sim.Bigbuf.blit_to_bytes t.slab ~src_off:(page_off + poff) buf
        ~dst_off:(off + !done_) ~len:n
    end;
    (* One access charge per cache line moved. *)
    charge t cs (n / 64 * Params.mem_access_ns);
    pos := Int64.add !pos (Int64.of_int n);
    done_ := !done_ + n
  done

let read_bytes t ~core addr buf off len = bulk t ~core addr buf off len ~write:false
let write_bytes t ~core addr buf off len = bulk t ~core addr buf off len ~write:true

let touch t ~core addr =
  let cs = core_state t core in
  ignore (page_off_for_read t cs (Vmem.Addr.vpn addr))
