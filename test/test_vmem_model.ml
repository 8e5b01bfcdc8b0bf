(* Model-based property tests for the virtual-memory layer: random
   operation sequences are applied both to the real structures
   (Page_table / Mmu / Address_space) and to trivially-correct pure
   models (a Hashtbl of vpn -> pte, a sorted list of ranges), then the
   two are compared exhaustively. The generators bias towards vpn
   collisions and reuse so the interesting paths (overwrite, update of
   an existing leaf, unmap/remap) are actually exercised. *)

open Util

(* ------------------------------------------------------------------ *)
(* Page table vs Hashtbl *)

(* A vpn pool mixing neighbours in one leaf, leaf boundaries, level
   boundaries and very sparse high pages (48-bit VA => vpn < 2^36). *)
let vpn_pool =
  [|
    0; 1; 2; 511; 512; 513; 1 lsl 18; (1 lsl 18) + 1; (1 lsl 27) - 1;
    1 lsl 27; (1 lsl 35) + 7; (1 lsl 36) - 1;
  |]

type pt_op = Set of int * int | Update_set_dirty of int | Unset of int

let pt_op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun i frame -> Set (i, frame)) (int_bound (Array.length vpn_pool - 1))
          (int_bound 0xFFFF);
        map (fun i -> Update_set_dirty i) (int_bound (Array.length vpn_pool - 1));
        map (fun i -> Unset i) (int_bound (Array.length vpn_pool - 1));
      ])

let pt_op_print = function
  | Set (i, f) -> Printf.sprintf "Set(vpn[%d], frame %d)" i f
  | Update_set_dirty i -> Printf.sprintf "Dirty(vpn[%d])" i
  | Unset i -> Printf.sprintf "Unset(vpn[%d])" i

let page_table_model_qcheck =
  QCheck.Test.make ~name:"page table agrees with Hashtbl model" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 60) pt_op_gen)
       ~print:(fun l -> String.concat "; " (List.map pt_op_print l)))
    (fun ops ->
      let pt = Vmem.Page_table.create () in
      let model : (int, Vmem.Pte.t) Hashtbl.t = Hashtbl.create 16 in
      let model_set vpn pte =
        if Int64.equal pte Vmem.Pte.zero then Hashtbl.remove model vpn
        else Hashtbl.replace model vpn pte
      in
      List.iter
        (fun op ->
          match op with
          | Set (i, frame) ->
              let vpn = vpn_pool.(i) in
              let pte = Vmem.Pte.make_local ~frame ~writable:true in
              Vmem.Page_table.set pt vpn pte;
              model_set vpn pte
          | Update_set_dirty i ->
              let vpn = vpn_pool.(i) in
              Vmem.Page_table.update pt vpn Vmem.Pte.set_dirty;
              let cur =
                match Hashtbl.find_opt model vpn with
                | Some p -> p
                | None -> Vmem.Pte.zero
              in
              model_set vpn (Vmem.Pte.set_dirty cur)
          | Unset i ->
              let vpn = vpn_pool.(i) in
              Vmem.Page_table.set pt vpn Vmem.Pte.zero;
              model_set vpn Vmem.Pte.zero)
        ops;
      (* Every pool vpn reads back what the model holds... *)
      Array.for_all
        (fun vpn ->
          let expect =
            match Hashtbl.find_opt model vpn with
            | Some p -> p
            | None -> Vmem.Pte.zero
          in
          Int64.equal (Vmem.Page_table.get pt vpn) expect)
        vpn_pool
      (* ...and the mapped-entry census matches. *)
      && Vmem.Page_table.count_mapped pt = Hashtbl.length model)

let page_table_iter_range_qcheck =
  QCheck.Test.make ~name:"iter_range agrees with per-vpn get" ~count:200
    QCheck.(pair (int_bound 2000) (int_range 1 1200))
    (fun (start, count) ->
      let pt = Vmem.Page_table.create () in
      (* Sprinkle entries around the range with a deterministic rng. *)
      let rng = Sim.Rng.create (start + (count * 7919)) in
      for _ = 1 to 40 do
        let vpn = Sim.Rng.int rng 4000 in
        Vmem.Page_table.set pt vpn
          (Vmem.Pte.make_local ~frame:(Sim.Rng.int rng 1000) ~writable:true)
      done;
      let seen = ref [] in
      Vmem.Page_table.iter_range pt ~vpn:start ~count (fun vpn pte ->
          seen := (vpn, pte) :: !seen);
      let expect =
        List.init count (fun i -> (start + i, Vmem.Page_table.get pt (start + i)))
      in
      List.rev !seen = expect)

(* ------------------------------------------------------------------ *)
(* MMU accessed/dirty semantics *)

let mmu_ad_bits_qcheck =
  QCheck.Test.make ~name:"mmu access sets A/D like the hardware walker"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 1 20) (pair (int_bound 7) bool))
    (fun accesses ->
      let pt = Vmem.Page_table.create () in
      for vpn = 0 to 7 do
        Vmem.Page_table.set pt vpn (Vmem.Pte.make_local ~frame:vpn ~writable:true)
      done;
      (* Model: which pages have been read / written so far. *)
      let acc = Array.make 8 false and dirty = Array.make 8 false in
      List.for_all
        (fun (vpn, write) ->
          let r = Vmem.Mmu.access pt ~vpn ~write in
          acc.(vpn) <- true;
          if write then dirty.(vpn) <- true;
          let pte = Vmem.Mmu.probe pt ~vpn in
          r = Vmem.Mmu.Frame vpn
          && Vmem.Pte.accessed pte = acc.(vpn)
          && Vmem.Pte.dirty pte = dirty.(vpn))
        accesses
      && List.for_all
           (fun vpn ->
             let pte = Vmem.Mmu.probe pt ~vpn in
             Vmem.Pte.accessed pte = acc.(vpn) && Vmem.Pte.dirty pte = dirty.(vpn))
           [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let mmu_faults_do_not_touch_pte () =
  let pt = Vmem.Page_table.create () in
  Vmem.Page_table.set pt 3 (Vmem.Pte.make_remote ());
  (match Vmem.Mmu.access pt ~vpn:3 ~write:true with
  | Vmem.Mmu.Fault pte ->
      check_bool "faulting entry reported" true
        (Vmem.Pte.tag pte = Vmem.Pte.Remote)
  | Vmem.Mmu.Frame _ -> Alcotest.fail "remote page must fault");
  let pte = Vmem.Mmu.probe pt ~vpn:3 in
  check_bool "fault leaves A/D clear" false
    (Vmem.Pte.accessed pte || Vmem.Pte.dirty pte);
  match Vmem.Mmu.access pt ~vpn:99 ~write:false with
  | Vmem.Mmu.Fault pte -> check_bool "unmapped faults as zero" true
      (Int64.equal pte Vmem.Pte.zero)
  | Vmem.Mmu.Frame _ -> Alcotest.fail "unmapped page must fault"

(* ------------------------------------------------------------------ *)
(* Address space vs a sorted-range model *)

(* Sequences run to hundreds of live mappings (the array index starts
   at 8 slots and doubles), unmap at both ends and in the middle, and
   probe interiors, guard pages, [top] and addresses below the base. *)
type as_op =
  | Mmap of int * bool
  | Munmap_first
  | Munmap_last
  | Munmap_nth of int
  | Munmap_gone of int  (** a base already unmapped: must raise *)
  | Find of int  (** interior or the guard page after the nth mapping *)
  | Find_guard of int  (** strictly inside the nth mapping's guard page *)
  | Find_top
  | Find_below of int

let as_op_gen =
  QCheck.Gen.(
    frequency
      [
        (10, map2 (fun pages ddc -> Mmap (pages, ddc)) (int_range 1 16) bool);
        (1, return Munmap_first);
        (1, return Munmap_last);
        (1, map (fun i -> Munmap_nth i) (int_bound 1000));
        (1, map (fun i -> Munmap_gone i) (int_bound 1000));
        (3, map (fun i -> Find i) (int_bound 100_000));
        (1, map (fun i -> Find_guard i) (int_bound 100_000));
        (1, return Find_top);
        (1, map (fun i -> Find_below i) (int_bound 4096));
      ])

let as_op_print = function
  | Mmap (p, d) -> Printf.sprintf "Mmap(%d pages, ddc=%b)" p d
  | Munmap_first -> "Munmap_first"
  | Munmap_last -> "Munmap_last"
  | Munmap_nth i -> Printf.sprintf "Munmap#%d" i
  | Munmap_gone i -> Printf.sprintf "Munmap_gone#%d" i
  | Find i -> Printf.sprintf "Find#%d" i
  | Find_guard i -> Printf.sprintf "Find_guard#%d" i
  | Find_top -> "Find_top"
  | Find_below i -> Printf.sprintf "Find_below#%d" i

let as_ops_gen = QCheck.Gen.(list_size (int_range 0 600) as_op_gen)

let address_space_model_qcheck =
  QCheck.Test.make ~name:"address space agrees with range-list model" ~count:300
    (QCheck.make as_ops_gen
       ~print:(fun l -> String.concat "; " (List.map as_op_print l)))
    (fun ops ->
      let base0 = 0x10000000L in
      let sp = Vmem.Address_space.create ~base:base0 () in
      let model = ref [] (* (base, len, ddc) sorted by base *) in
      let gone = ref [] (* bases unmapped so far *) in
      let ok = ref true in
      let check b = if not b then ok := false in
      let rec insert ((b, _, _) as r) = function
        | ((b', _, _) as r') :: rest when Int64.compare b' b < 0 ->
            r' :: insert r rest
        | l -> r :: l
      in
      let probe addr =
        let expect =
          List.find_opt
            (fun (b, l, _) ->
              Int64.compare b addr <= 0
              && Int64.compare addr (Int64.add b (Int64.of_int l)) < 0)
            !model
        in
        (match (Vmem.Address_space.find sp addr, expect) with
        | None, None -> ()
        | Some vma, Some (b, l, d) ->
            check (Int64.equal vma.Vmem.Address_space.base b);
            check (Int64.equal vma.Vmem.Address_space.len (Int64.of_int l));
            check (vma.Vmem.Address_space.ddc = d)
        | _ -> check false);
        check
          (Vmem.Address_space.is_ddc sp addr
          = match expect with Some (_, _, d) -> d | None -> false)
      in
      let unmap n =
        let base, len, _ = List.nth !model n in
        let vma = Vmem.Address_space.munmap sp base in
        check (Int64.equal vma.Vmem.Address_space.base base);
        check (Int64.equal vma.Vmem.Address_space.len (Int64.of_int len));
        model := List.filter (fun (b, _, _) -> not (Int64.equal b base)) !model;
        gone := base :: !gone;
        (* The whole range, including its first and last byte, is gone. *)
        probe base;
        probe (Int64.add base (Int64.of_int (len - 1)))
      in
      let nth_range i =
        match !model with
        | [] -> None
        | l -> Some (List.nth l (i mod List.length l))
      in
      List.iter
        (fun op ->
          match op with
          | Mmap (pages, ddc) ->
              let len = pages * 4096 in
              let base = Vmem.Address_space.mmap sp ~len ~ddc () in
              (* page aligned, and overlapping no existing range *)
              check (Int64.rem base 4096L = 0L);
              let hi = Int64.add base (Int64.of_int len) in
              check
                (List.for_all
                   (fun (b, l, _) ->
                     let h = Int64.add b (Int64.of_int l) in
                     Int64.compare hi b <= 0 || Int64.compare h base <= 0)
                   !model);
              model := insert (base, len, ddc) !model
          | Munmap_first -> if !model <> [] then unmap 0
          | Munmap_last ->
              if !model <> [] then unmap (List.length !model - 1)
          | Munmap_nth i ->
              if !model <> [] then unmap (i mod List.length !model)
          | Munmap_gone i -> (
              match !gone with
              | [] -> ()
              | l -> (
                  let base = List.nth l (i mod List.length l) in
                  try
                    ignore (Vmem.Address_space.munmap sp base);
                    check false
                  with Not_found -> ()))
          | Find i -> (
              match nth_range i with
              | None -> probe (Int64.add base0 (Int64.of_int (i * 4096)))
              | Some (b, len, _) ->
                  probe (Int64.add b (Int64.of_int (i * 977 mod (len + 4096)))))
          | Find_guard i -> (
              match nth_range i with
              | None -> ()
              | Some (b, len, _) ->
                  probe (Int64.add b (Int64.of_int (len + (i mod 4096)))))
          | Find_top ->
              let top = Vmem.Address_space.top sp in
              probe top;
              probe (Int64.pred top)
          | Find_below i ->
              probe (Int64.sub base0 (Int64.of_int (i + 1)));
              probe (Int64.of_int i))
        ops;
      (* Final structural invariants: sorted bases, guard gap between
         neighbours, model agreement. *)
      let vmas = Vmem.Address_space.vmas sp in
      check (List.length vmas = List.length !model);
      List.iter2
        (fun vma (b, l, d) ->
          check (Int64.equal vma.Vmem.Address_space.base b);
          check (Int64.equal vma.Vmem.Address_space.len (Int64.of_int l));
          check (vma.Vmem.Address_space.ddc = d))
        vmas !model;
      let rec gaps = function
        | a :: (b :: _ as rest) ->
            check
              (Int64.compare
                 (Int64.add a.Vmem.Address_space.base a.Vmem.Address_space.len)
                 b.Vmem.Address_space.base
              < 0);
            gaps rest
        | _ -> ()
      in
      gaps vmas;
      !ok)

(* The generator must reach the sizes the property is meant to cover:
   live mappings in the hundreds, far past the index's initial 8 slots. *)
let address_space_gen_reaches_hundreds () =
  let rand = Random.State.make [| 13 |] in
  let peak = ref 0 in
  for _ = 1 to 20 do
    let live = ref 0 in
    List.iter
      (function
        | Mmap _ ->
            incr live;
            peak := Int.max !peak !live
        | Munmap_first | Munmap_last | Munmap_nth _ -> if !live > 0 then decr live
        | Munmap_gone _ | Find _ | Find_guard _ | Find_top | Find_below _ -> ())
      (as_ops_gen rand)
  done;
  check_bool "peak live mappings >= 150" true (!peak >= 150)

let address_space_munmap_missing () =
  let sp = Vmem.Address_space.create () in
  let base = Vmem.Address_space.mmap sp ~len:4096 ~ddc:true () in
  (try
     ignore (Vmem.Address_space.munmap sp (Int64.add base 8L));
     Alcotest.fail "munmap of a non-base address must raise"
   with Not_found -> ());
  ignore (Vmem.Address_space.munmap sp base)

let suite =
  [
    QCheck_alcotest.to_alcotest page_table_model_qcheck;
    QCheck_alcotest.to_alcotest page_table_iter_range_qcheck;
    QCheck_alcotest.to_alcotest mmu_ad_bits_qcheck;
    quick "mmu faults leave ptes untouched" mmu_faults_do_not_touch_pte;
    QCheck_alcotest.to_alcotest address_space_model_qcheck;
    quick "address space generator reaches hundreds of mappings"
      address_space_gen_reaches_hundreds;
    quick "munmap of unknown base raises" address_space_munmap_missing;
  ]
