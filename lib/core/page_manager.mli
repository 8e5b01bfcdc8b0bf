(** Page manager (§4.4): allocator, cleaner, reclaimer.

    The fault handler never reclaims: it pops a free frame from the
    allocator, and two background fibers keep that pool stocked —

    - the {e cleaner} periodically scans the LRU clock for dirty pages
      and writes them back (clearing dirty bits), so that eviction of
      cold pages is usually RDMA-free;
    - the {e reclaimer} runs the clock algorithm eagerly whenever free
      frames fall under the low watermark, evicting
      least-recently-used clean pages until the high watermark.

    With a reclaim guide installed (guided paging), evictions move
    only the live byte ranges of each page using vectored RDMA and
    leave an [Action] PTE whose payload indexes the logged vector, so
    the eventual re-fetch is equally frugal. *)

type t

val create :
  eng:Sim.Engine.t ->
  stats:Sim.Stats.t ->
  pt:Vmem.Page_table.t ->
  frames:Vmem.Frame.t ->
  evict_qp:Rdma.Qp.t ->
  ?reclaim_guide:Guide.reclaim_guide ->
  unit ->
  t

val set_invalidate : t -> (int -> unit) -> unit
(** Register the kernel's TLB shoot-down: called with a VPN whenever
    the manager clears accessed/dirty bits or unmaps a page. *)

val start : t -> unit
(** Spawn the cleaner and reclaimer fibers. *)

val stop : t -> unit
(** Ask background fibers to exit at their next wake-up (so
    [Engine.run] can drain). *)

val alloc_frame : t -> int
(** Pop a free frame for the calling fiber, blocking (and nudging the
    reclaimer) when the pool is empty. The blocked time is the
    "reclaim in critical path" the design tries to avoid; it is
    accounted in the [reclaim_stall_ns] counter. *)

val try_alloc_frame : t -> int option
(** Non-blocking variant used by the prefetcher, which sheds load
    instead of stalling. *)

val release_frame : t -> int -> unit
(** Return an allocated-but-never-mapped frame to the pool and wake
    fibers blocked in {!alloc_frame} (used when an aborted prefetch
    unwinds). *)

val note_mapped : t -> int -> unit
(** Tell the LRU clock a page just became [Local] at [vpn]. A dirty
    PTE counts as a clean->dirty transition (see {!note_dirtied}),
    also when a stale clock entry for [vpn] makes the push a no-op. *)

val note_dirtied : t -> int -> unit
(** [note_dirtied t vpn]: the page at [vpn] just went clean->dirty.
    The kernel's store path must call this on every such transition
    (redundant calls are harmless; vpns not on the LRU clock are
    ignored). It gates the periodic cleaner, so an all-clean resident
    set costs nothing to scan, and pulls the cleaner's clean-prefix
    cursor back to [vpn]'s clock slot. A missed call cannot lose a
    store (eviction reads the dirty bit itself) but would delay the
    page's background write-back. *)

val vector_segments : t -> payload:int -> (int * int) list
(** Decode an [Action] PTE payload into its logged fetch vector
    (consumed: the log entry is removed). *)

val free_frames : t -> int

val cleaner_probes : t -> int
(** Host-side diagnostic: clock entries the cleaner has examined so
    far. Not a {!Sim.Stats} counter, so counter dumps do not show it. *)

val quiesce : t -> unit
(** Block until no write-back is in flight (used by tests and
    checkpoints). *)
