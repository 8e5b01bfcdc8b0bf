(** Memory node server.

    Mirrors the paper's memory node (§5): a process that accepts a
    setup request from the computing node, registers its memory region
    with its RNIC (using huge TLB pages so the RNIC page table fits in
    NIC cache), and then steps aside — every data-path operation is a
    one-sided RDMA served by the (simulated) RNIC against the
    {!Page_store}s of a {!Replica_group}.

    Every server is a replica group behind one connect point; the
    paper's single memory node is the default 1×1 group. The computing
    node dials the same way whatever the topology and sees one flat
    address space. *)

type t

val create :
  eng:Sim.Engine.t ->
  size:int64 ->
  ?huge_pages:bool ->
  ?config:Replica_group.config ->
  ?faults:Faults.Plan.t ->
  unit ->
  t
(** [size] is the amount of remote memory exported, in bytes.
    [config] (default {!Replica_group.default_config}, one shard, one
    copy) sets the shard count and replication factor. [faults]
    attaches a deterministic fault campaign to every fabric this
    server hands out (see {!Faults.Plan}) and arms the plan's scripted
    [kill-shard] / [recover-shard] schedule on the group. *)

val connect :
  t ->
  ?nic_config:Rdma.Nic.config ->
  ?extra_completion_delay:Sim.Time.t ->
  ?stats:Sim.Stats.t ->
  unit ->
  Rdma.Fabric.t
(** Perform connection setup (control path) and return the fabric the
    computing node uses from then on. [stats] also resolves the
    group's [repl_*] counters. *)

val store : t -> Page_store.t
(** Shard 0's store. *)

val size : t -> int64
