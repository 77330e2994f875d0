(** The optimizing compiler ("Crankshaft" stand-in, paper §3.2/§4.3).

    Pipeline: bytecode + type feedback
      -> forward type/provenance/constant fixpoint over the basic blocks of
         the bytecode (input states kept at block leaders only)
      -> LIR emission with explicit, categorized check instructions, each
         pc seeing its state replayed from its block's leader.

    Check insertion follows V8: property/element accesses are specialized to
    the receiver shapes seen by the inline caches, guarded by Check Map /
    Check (Non-)SMI operations that deoptimize into the baseline tier.

    With the mechanism enabled, the Class List is consulted: a load from a
    slot profiled monomorphic yields a value of *known* type, so the
    downstream checks (§4.3.1-4.3.3: Check Maps / Check SMI / Check Non-SMI
    elimination, including untag guards) are simply never emitted, and the
    compiled code registers a speculation dependency on that slot. Stores to
    still-valid slots are emitted as movClassID + movStoreClassCache
    (movClassIDArray + movStoreClassCacheArray for elements). *)

open Tce_vm
module CL = Tce_core.Class_list
module Reason = Tce_attr.Reason
module Ledger = Tce_attr.Ledger

exception Bailout of string
(** the function cannot be optimized; stays in the baseline tier *)

let bailout fmt = Fmt.kstr (fun s -> raise (Bailout s)) fmt

(* --- the type lattice --- *)

type ty =
  | Any
  | Smi
  | Num  (** number: SMI or heap number *)
  | Cls of int  (** tagged pointer of known hidden class *)
  | Bool
  | Null
  | Str

let ty_equal a b =
  match (a, b) with
  | Cls x, Cls y -> x = y
  | Cls _, _ | _, Cls _ -> false
  | _ -> a == b  (* the other constructors are immediates *)

let is_numeric heapnum_id = function
  | Smi | Num -> true
  | Cls c -> c = heapnum_id
  | _ -> false

let join_ty heapnum_id a b =
  if ty_equal a b then a
  else if is_numeric heapnum_id a && is_numeric heapnum_id b then Num
  else Any

(* --- compilation environment --- *)

type env = {
  prog : Bytecode.program;
  heap : Heap.t;
  cl : CL.t;
  mechanism : bool;
  hoisting : bool;
      (** hoist movClassIDArray out of call-free loops (paper §4.2.1.3) *)
  checked_load : bool;
      (** Checked Load baseline (Anderson et al., paper §2): property-load
          receiver checks are fused into the load by hardware — executed
          but never removed; only applies to loads *)
  fn : Bytecode.func;
  opt_id : int;
  code_addr : int;
  globals_base : int;  (** simulated address of the global cells *)
  attr : Ledger.t;
      (** attribution ledger ({!Tce_attr.Ledger.null} = disabled): records
          per-check-site removed/kept decisions and why *)
}

let heapnum_id env = (Hidden_class.Registry.number_class env.heap.Heap.reg).Hidden_class.id
let string_id env = (Hidden_class.Registry.string_class env.heap.Heap.reg).Hidden_class.id
let boolean_id env = (Hidden_class.Registry.boolean_class env.heap.Heap.reg).Hidden_class.id
let null_id env = (Hidden_class.Registry.null_class env.heap.Heap.reg).Hidden_class.id

let class_of_id env id = Hidden_class.Registry.find_exn env.heap.Heap.reg id

let kind_of_classid env id = (class_of_id env id).Hidden_class.kind

(** Result type of a specialized load from slot [(classid, line, pos)] under
    Class List speculation; [None] = unknown (checks stay). *)
let spec_load_ty env ~classid ~line ~pos : ty option =
  if not env.mechanism then None
  else
    match CL.profiled_class env.cl ~classid ~line ~pos with
    | None -> None
    | Some p ->
      if p = Layout.smi_classid then Some Smi
      else (match Hidden_class.Registry.find env.heap.Heap.reg p with
           | Some _ -> Some (Cls p)
           | None -> None)

(** Built-in type-specific slots (need no profile): elements length (arrays
    and plain objects) and string length are always SMIs. *)
let invariant_slot_ty env ~classid ~slot : ty option =
  match kind_of_classid env classid with
  | Hidden_class.K_string when slot = 2 -> Some Smi
  | (Hidden_class.K_array _ | Hidden_class.K_object)
    when slot = Layout.elements_len_slot ->
    Some Smi
  | _ -> None

(** Type a specialized property load: invariants first, then speculation. *)
let prop_load_ty env ~classid ~slot : ty option * (int * int * int) option =
  match invariant_slot_ty env ~classid ~slot with
  | Some ty -> (Some ty, None)
  | None ->
    let line, pos = Layout.line_pos_of_slot slot in
    (match spec_load_ty env ~classid ~line ~pos with
    | Some ty -> (Some ty, Some (classid, line, pos))
    | None -> (None, None))

(** Type of a specialized elements load from a receiver of class [classid]:
    SMI/double kinds are typed by the elements kind itself (V8 invariant);
    tagged kinds can be typed by the Class List's Prop2 profile. *)
let elem_load_ty env ~classid :
    [ `Smi | `Double | `Tagged of ty option * (int * int * int) option | `No_elements ] =
  match kind_of_classid env classid with
  | Hidden_class.K_array Hidden_class.E_smi -> `Smi
  | K_array E_double -> `Double
  | K_array E_tagged | K_object -> (
    let pos = Layout.elements_ptr_slot in
    match spec_load_ty env ~classid ~line:0 ~pos with
    | Some ty -> `Tagged (Some ty, Some (classid, 0, pos))
    | None -> `Tagged (None, None))
  | _ -> `No_elements

let builtin_ret_ty (b : Builtins.t) : ty =
  match b with
  | Builtins.B_sqrt | B_sin | B_cos | B_exp | B_log | B_pow | B_random
  | B_abs | B_floor | B_ceil | B_min | B_max ->
    Num
  | B_str_len | B_char_code | B_push -> Smi
  | B_array_new -> Any
      (* a fresh array's class mutates in place on kind transitions, so the
         static type would go stale: keep it Any (checked at uses) *)
  | B_from_char_code | B_substr -> Str
  | B_str_eq -> Bool
  | B_print | B_assert_eq -> Null

(* --- fixpoint state: (type, provenance, known constant) per register --- *)

type cval = C_none | C_int of int | C_float of float

(* Floats compare with IEEE [=], as the structural comparison did: a NaN
   constant never equals itself and so joins to [C_none]. *)
let cval_equal a b =
  match (a, b) with
  | C_none, C_none -> true
  | C_int x, C_int y -> x = y
  | C_float x, C_float y -> x = y
  | _ -> false

type state = { tys : ty array; fl : bool array; cv : cval array }

(** The state of an unreached pc: every register [Null], no provenance, no
    constant. *)
let initial_state nregs =
  { tys = Array.make nregs Null; fl = Array.make nregs false;
    cv = Array.make nregs C_none }

let copy_state s = { tys = Array.copy s.tys; fl = Array.copy s.fl; cv = Array.copy s.cv }

let blit_state src dst =
  let n = Array.length src.tys in
  Array.blit src.tys 0 dst.tys 0 n;
  Array.blit src.fl 0 dst.fl 0 n;
  Array.blit src.cv 0 dst.cv 0 n

let reset_state st =
  let n = Array.length st.tys in
  Array.fill st.tys 0 n Null;
  Array.fill st.fl 0 n false;
  Array.fill st.cv 0 n C_none

(** Join [b] into [a]; [true] when [a] changed. *)
let join_state hn (a : state) (b : state) =
  let changed = ref false in
  for i = 0 to Array.length a.tys - 1 do
    let t = a.tys.(i) in
    let j = join_ty hn t b.tys.(i) in
    if not (ty_equal j t) then begin
      a.tys.(i) <- j;
      changed := true
    end;
    if b.fl.(i) && not a.fl.(i) then begin
      a.fl.(i) <- true;
      changed := true
    end;
    match a.cv.(i) with
    | C_none -> ()
    | c ->
      if not (cval_equal c b.cv.(i)) then begin
        a.cv.(i) <- C_none;
        changed := true
      end
  done;
  !changed

(* Define register [r] with type [ty] (from an object load for [set_fl]).
   Top level: local closures over the state would be allocated on every
   [transfer]. *)
let set st r ty =
  st.tys.(r) <- ty;
  st.fl.(r) <- false;
  st.cv.(r) <- C_none

let set_fl st r ty =
  st.tys.(r) <- ty;
  st.fl.(r) <- true;
  st.cv.(r) <- C_none

(** Abstract transfer of one bytecode op over [st] (in place). Must agree
    exactly with the code generator's decisions below. *)
let transfer env (st : state) (bc : Bytecode.bc) =
  let fb = env.fn.Bytecode.fb in
  match bc with
  | Bytecode.LoadInt (r, i) ->
    set st r Smi;
    st.cv.(r) <- C_int i
  | LoadNum (r, x) ->
    (* float literals are interned heap-number constants *)
    set st r (Cls (heapnum_id env));
    st.cv.(r) <- C_float x
  | LoadStr (r, _) -> set st r Str
  | LoadBool (r, _) -> set st r Bool
  | LoadNull r -> set st r Null
  | Move (d, s) ->
    st.tys.(d) <- st.tys.(s);
    st.fl.(d) <- st.fl.(s);
    st.cv.(d) <- st.cv.(s)
  | BinOp (op, d, _, _, slot) -> (
    let k = Feedback.binop_of fb.(slot) in
    match op with
    | Tce_minijs.Ast.Lt | Le | Gt | Ge | Eq | Ne -> set st d Bool
    | LAnd | LOr -> set st d Any
    | BitAnd | BitOr | BitXor | Shl | Shr -> set st d Smi
    | Ushr -> set st d (match k with Feedback.Bf_smi -> Smi | _ -> Num)
    | Add | Sub | Mul | Div | Mod -> (
      match k with
      | Feedback.Bf_smi -> set st d Smi
      | Bf_number -> set st d Num
      | Bf_string when op = Tce_minijs.Ast.Add -> set st d Str
      | _ -> set st d Any))
  | UnOp (op, d, _) -> (
    match op with
    | Tce_minijs.Ast.Neg -> set st d Num
    | Not -> set st d Bool
    | BitNot -> set st d Smi)
  | GetProp (d, o, _, slot) -> (
    match Feedback.prop_of fb.(slot) with
    | Feedback.Ic_mono { classid; slot = s; _ } -> (
      (* the emitted Check Map refines the receiver's type from here on
         (flow-sensitive check elimination, like Crankshaft's) *)
      st.tys.(o) <- Cls classid;
      match prop_load_ty env ~classid ~slot:s with
      | Some ty, _ -> set_fl st d ty
      | None, _ -> set_fl st d Any)
    | Ic_poly shapes -> (
      (* typed only if every shape agrees *)
      let tys =
        List.map (fun (sh : Feedback.shape) ->
            fst (prop_load_ty env ~classid:sh.classid ~slot:sh.slot))
          shapes
      in
      match tys with
      | Some t0 :: rest when List.for_all (( = ) (Some t0)) rest -> set_fl st d t0
      | _ -> set_fl st d Any)
    | _ -> set_fl st d Any)
  | GetElem (d, o, i, slot) -> (
    match Feedback.elem_of fb.(slot) with
    | Feedback.Eic_mono classid -> (
      st.tys.(o) <- Cls classid;
      st.tys.(i) <- Smi;  (* index guard *)
      match elem_load_ty env ~classid with
      | `Smi -> set_fl st d Smi
      | `Double -> set_fl st d Num
      | `Tagged (Some ty, _) -> set_fl st d ty
      | `Tagged (None, _) | `No_elements -> set_fl st d Any)
    | _ -> set_fl st d Any)
  | SetProp (o, _, _, slot) -> (
    (* the emitted Check Map refines the receiver; a transitioning store
       additionally changes the receiver's class *)
    match Feedback.prop_of fb.(slot) with
    | Feedback.Ic_mono { transition_to = Some c'; _ } -> st.tys.(o) <- Cls c'
    | Feedback.Ic_mono { classid; transition_to = None; _ } ->
      st.tys.(o) <- Cls classid
    | _ -> ())
  | SetElem (o, i, _, slot) -> (
    match Feedback.elem_of fb.(slot) with
    | Feedback.Eic_mono classid ->
      st.tys.(o) <- Cls classid;
      st.tys.(i) <- Smi
    | _ -> ())
  | NewObject d ->
    set st d
      (Cls (Hidden_class.Registry.object_root_class env.heap.Heap.reg).Hidden_class.id)
  | NewArray (d, _) ->
    set st d
      (Cls
         (Hidden_class.Registry.array_class env.heap.Heap.reg Hidden_class.E_smi)
           .Hidden_class.id)
  | GetGlobal (d, _) -> set st d Any
  | SetGlobal _ -> ()
  | AllocCtor (d, fid) -> (
    match env.prog.Bytecode.funcs.(fid).Bytecode.base_class with
    | Some base -> set st d (Cls base.Hidden_class.id)
    | None -> set st d Any)
  | Call (d, _, _) | New (d, _, _) -> set st d Any
  | CallB (d, b, _) -> set st d (builtin_ret_ty b)
  | Jump _ | JumpIfFalse _ | JumpIfTrue _ | Return _ -> ()

(* --- block-level fixpoint --- *)

(* Input states live only at basic-block leaders: pc 0, every jump target
   and the pc after each jump or return. Inside a block every pc has the
   previous pc as its only predecessor, so its input state is the block's
   entry state replayed through [transfer]. *)
type flow = {
  leader : bool array;
  entry : state array;  (** leader pc -> input state, when [reached] *)
  reached : bool array;  (** per leader pc *)
  run : state;  (** the running state the replays mutate *)
}

let leaders (code : Bytecode.bc array) =
  let n = Array.length code in
  let leader = Array.make n false in
  let mark pc = if pc < n then leader.(pc) <- true in
  mark 0;
  Array.iteri
    (fun pc bc ->
      match bc with
      | Bytecode.Jump l | JumpIfFalse (_, l) | JumpIfTrue (_, l) ->
        mark l;
        mark (pc + 1)
      | Return _ -> mark (pc + 1)
      | _ -> ())
    code;
  leader

(** Run the forward type/provenance/constant dataflow to its fixpoint over
    basic blocks. The transfer is monotone over the join, so the fixpoint
    (and hence the emitted code) does not depend on the visit order. *)
let fixpoint env : flow =
  let fn = env.fn in
  let code = fn.Bytecode.code in
  let n = Array.length code in
  let nregs = fn.Bytecode.n_regs in
  let hn = heapnum_id env in
  let leader = leaders code in
  let run = initial_state nregs in
  let entry = Array.make n run in
  let reached = Array.make n false in
  let pending = Array.make n false in
  let again = ref (n > 0) in
  if n > 0 then begin
    (* entry: this + params are Any, locals start as null *)
    let st0 = initial_state nregs in
    for i = 0 to min fn.Bytecode.n_params (nregs - 1) do
      st0.tys.(i) <- Any
    done;
    entry.(0) <- st0;
    reached.(0) <- true;
    pending.(0) <- true
  end;
  let flow_to pc =
    if pc < n then
      if not reached.(pc) then begin
        reached.(pc) <- true;
        entry.(pc) <- copy_state run;
        pending.(pc) <- true;
        again := true
      end
      else if join_state hn entry.(pc) run then begin
        pending.(pc) <- true;
        again := true
      end
  in
  (* sweep the blocks in pc order until nothing changes: forward edges
     settle within a sweep, each loop's backedge costs one more *)
  while !again do
    again := false;
    for start = 0 to n - 1 do
      if pending.(start) then begin
        pending.(start) <- false;
        blit_state entry.(start) run;
        let last = ref start in
        transfer env run code.(start);
        while !last + 1 < n && not leader.(!last + 1) do
          incr last;
          transfer env run code.(!last)
        done;
        match code.(!last) with
        | Bytecode.Jump l -> flow_to l
        | JumpIfFalse (_, l) | JumpIfTrue (_, l) ->
          flow_to (!last + 1);
          flow_to l
        | Return _ -> ()
        | _ -> flow_to (!last + 1)
      end
    done
  done;
  { leader; entry; reached; run }

(** Visit every pc in order with its fixpoint input state ([before]) and
    output state ([after]), replaying each block from its entry state in
    [flow.run]. Unreached pcs see the initial all-[Null] state. The state
    passed is only valid during the call. *)
let iter_states env flow ~before ~after =
  let code = env.fn.Bytecode.code in
  let st = flow.run in
  let reached = ref false in
  for pc = 0 to Array.length code - 1 do
    if flow.leader.(pc) then begin
      reached := flow.reached.(pc);
      if !reached then blit_state flow.entry.(pc) st
    end;
    if not !reached then reset_state st;
    before pc st;
    transfer env st code.(pc);
    after pc st
  done

(** Static representation of each bytecode register: unboxed double iff
    every def is a double-typed value or an integer literal (materialized
    as an immediate double), with at least one double def. Also returns,
    per pc, the input type of a [SetElem]'s value register (for
    {!compute_hoists}). *)
let assign_reprs env flow : Lir.repr array * ty array =
  let fn = env.fn in
  let code = fn.Bytecode.code in
  let nregs = fn.Bytecode.n_regs in
  let reprs = Array.make nregs Lir.R_tagged in
  let ok = Array.make nregs true in
  let has_dbl = Array.make nregs false in
  let store_tys = Array.make (Array.length code) Any in
  let hn = heapnum_id env in
  iter_states env flow
    ~before:(fun pc st ->
      match code.(pc) with
      | Bytecode.SetElem (_, _, v, _) -> store_tys.(pc) <- st.tys.(v)
      | _ -> ())
    ~after:(fun pc st ->
      match code.(pc) with
      | Bytecode.LoadInt _ -> ()  (* immediate: FMovImm in a double reg *)
      | bc -> (
        match Bytecode.def_reg bc with
        | Some d -> (
          match st.tys.(d) with
          | Num -> has_dbl.(d) <- true
          | Cls c when c = hn -> has_dbl.(d) <- true
          | _ -> ok.(d) <- false)
        | None -> ()));
  for r = fn.Bytecode.n_params + 1 to nregs - 1 do
    if ok.(r) && has_dbl.(r) then reprs.(r) <- Lir.R_double
  done;
  (reprs, store_tys)

(* --- code generation --- *)

type fixup = F_bc of int | F_deopt of int

type gen = {
  genv : env;
  reprs : Lir.repr array;
  n_bc : int;  (** bytecode register count; LIR regs/fregs 0..n_bc-1 mirror them *)
  mutable out : Lir.inst array;
  mutable n : int;
  bc2lir : int array;
  mutable fixups : (int * fixup) list;
  mutable deopt_infos : Lir.deopt_info list;  (** reversed *)
  mutable n_deopts : int;
  mutable scratch : int;
  mutable max_reg : int;
  mutable scratch_f : int;
  mutable max_freg : int;
  mutable deps : (int * int * int) list;
  hoist_headers : (int, (int * int) list) Hashtbl.t;
      (** loop-header bc pc -> [(k, receiver reg)] movClassIDArray hoists
          emitted just before the header (executed once per loop entry) *)
  hoist_sites : (int, int) Hashtbl.t;
      (** SetElem bc pc -> the special register k holding its receiver's
          ClassID *)
}

let emit g ?(flags = 0) cat op =
  if g.n = Array.length g.out then begin
    let a = Array.make (max 64 (2 * g.n)) (Lir.inst Categories.C_other (Lir.Jmp 0)) in
    Array.blit g.out 0 a 0 g.n;
    g.out <- a
  end;
  g.out.(g.n) <- Lir.inst ~flags cat op;
  g.n <- g.n + 1;
  g.n - 1

let retarget (op : Lir.op) tgt =
  match op with
  | Lir.Branch (c, r, o, _) -> Lir.Branch (c, r, o, tgt)
  | FBranch (c, a, b, _) -> FBranch (c, a, b, tgt)
  | Jmp _ -> Jmp tgt
  | AluOv (a, d, s, o, _) -> AluOv (a, d, s, o, tgt)
  | _ -> invalid_arg "retarget"

(** Patch a locally-emitted forward branch to the current position. *)
let land_here g idx =
  g.out.(idx) <- { (g.out.(idx)) with op = retarget g.out.(idx).op g.n }

let add_fixup g idx f = g.fixups <- (idx, f) :: g.fixups

let scratch g =
  let r = g.scratch in
  g.scratch <- r + 1;
  g.max_reg <- max g.max_reg (r + 1);
  r

let scratch_f g =
  let r = g.scratch_f in
  g.scratch_f <- r + 1;
  g.max_freg <- max g.max_freg (r + 1);
  r

let reset_scratch g =
  g.scratch <- g.n_bc;
  g.scratch_f <- g.n_bc

let mk_deopt g ~(reason : Reason.t) ~bc_pc ~result_into =
  g.deopt_infos <- { Lir.bc_pc; result_into; reason } :: g.deopt_infos;
  g.n_deopts <- g.n_deopts + 1;
  g.n_deopts - 1

(** Record one check-site decision in the attribution ledger (no-op when the
    ledger is {!Ledger.null}; never touches simulated state). *)
let attr_site g ~pc ~kind ?classid ?note decision =
  Ledger.record_site g.genv.attr ~fn:g.genv.fn.Bytecode.name ~pc
    ~kind:(Categories.check_kind_name kind) ?classid ?note decision

(** Why a Class List slot failed to type its loads (the check stays). *)
let slot_keep_cause g ~classid ~line ~pos : Ledger.keep_cause =
  let env = g.genv in
  if not env.mechanism then Ledger.Kc_mechanism_off
  else if not (CL.is_valid env.cl ~classid ~line ~pos) then
    if Ledger.slot_retired env.attr ~classid ~line ~pos then Ledger.Kc_cc_eviction
    else Ledger.Kc_valid_cleared
  else if not (CL.is_monomorphic env.cl ~classid ~line ~pos) then
    Ledger.Kc_init_unset
  else
    (* initialized and valid, yet the load was not typed: the profiled
       class conflicts with what the consumer needs (e.g. unregistered) *)
    Ledger.Kc_speculate_conflict

let add_dep g classid line pos =
  if not (List.mem (classid, line, pos) g.deps) then
    g.deps <- (classid, line, pos) :: g.deps

(* constants *)
let null_imm g = g.genv.heap.Heap.null_v
let true_imm g = g.genv.heap.Heap.true_v
let false_imm g = g.genv.heap.Heap.false_v

let class_word0 g classid =
  Hidden_class.class_word (class_of_id g.genv classid) ~line:0

(** Emit a "deopt unless value in [r] is an SMI" (Check SMI). *)
let check_smi g ~flags ~cat r did =
  let idx = emit g ~flags cat (Lir.Branch (Lir.Bit_set, r, Lir.Imm 1, -1)) in
  add_fixup g idx (F_deopt did)

(** Emit a "deopt if SMI" (Check Non-SMI). *)
let check_non_smi g ~flags ~cat r did =
  let idx = emit g ~flags cat (Lir.Branch (Lir.Bit_clear, r, Lir.Imm 1, -1)) in
  add_fixup g idx (F_deopt did)

(** Ensure the value in bc reg [r] (tagged) has hidden class [cid]; emits the
    Check (Non-)SMI / Check Map sequence unless the type already proves it
    (the paper's §4.3.1/§4.3.2 elimination falls out of the type lattice). *)
let check_map g (st : state) ~flags ?(cat = Categories.C_check) r cid ~bc_pc =
  match st.tys.(r) with
  | Cls c when c = cid ->
    attr_site g ~pc:bc_pc ~kind:Categories.Ck_map ~classid:cid
      ~note:"type-proven" Ledger.Removed
  | ty ->
    (if Ledger.on g.genv.attr then
       let why =
         if not g.genv.mechanism then Ledger.Kc_mechanism_off
         else
           match ty with
           | Cls _ -> Ledger.Kc_speculate_conflict
           | _ -> Ledger.Kc_untyped
       in
       attr_site g ~pc:bc_pc ~kind:Categories.Ck_map ~classid:cid
         (Ledger.Kept why));
    let did =
      mk_deopt g ~reason:(Reason.make ~classid:cid Reason.K_check_map Reason.C_not_class ~pc:bc_pc)
        ~bc_pc ~result_into:None
    in
    let mapf = flags lor Categories.flag_of_check_kind Categories.Ck_map in
    if ty = Smi then ignore (emit g ~flags:mapf cat (Lir.Deopt did))
    else begin
      (match ty with
      | Any | Num ->
        check_non_smi g
          ~flags:(flags lor Categories.flag_of_check_kind Categories.Ck_non_smi)
          ~cat r did
      | _ -> ());
      let s = scratch g in
      ignore (emit g ~flags:mapf cat (Lir.Load (s, r, -1)));
      let idx =
        emit g ~flags:mapf cat (Lir.Branch (Lir.Ne, s, Lir.Imm (class_word0 g cid), -1))
      in
      add_fixup g idx (F_deopt did)
    end

let heapnum_word g = class_word0 g (heapnum_id g.genv)

(** Location of bc reg [r] as a float: returns an freg holding its numeric
    value, untagging/boxing as required by the repr and type. *)
let float_loc g (st : state) r ~bc_pc : Lir.freg =
  if g.reprs.(r) = Lir.R_double then r
  else begin
    let flags =
      if st.fl.(r) then Categories.flag_guards_obj_load else 0
    in
    let fd = scratch_f g in
    (match st.tys.(r) with
    | Smi ->
      let s = scratch g in
      ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Sar, s, r, Lir.Imm 1)));
      ignore (emit g Categories.C_taguntag (Lir.CvtIF (fd, s)))
    | Cls c when c = heapnum_id g.genv ->
      (* speculated heap number: direct payload load, no guards (§4.3.2) *)
      ignore (emit g Categories.C_taguntag (Lir.FLoad (fd, r, 7)))
    | _ ->
      (* generic number untag diamond (Full of the paper's Tags/Untags) *)
      let did =
        mk_deopt g ~reason:(Reason.make Reason.K_untag Reason.C_not_number ~pc:bc_pc)
          ~bc_pc ~result_into:None
      in
      let bheap =
        emit g ~flags Categories.C_taguntag (Lir.Branch (Lir.Bit_set, r, Lir.Imm 1, -1))
      in
      let s = scratch g in
      ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Sar, s, r, Lir.Imm 1)));
      ignore (emit g Categories.C_taguntag (Lir.CvtIF (fd, s)));
      let bend = emit g Categories.C_other (Lir.Jmp (-1)) in
      land_here g bheap;
      (match st.tys.(r) with
      | Num -> ()  (* number: the non-SMI side must be a heap number *)
      | _ ->
        let sm = scratch g in
        ignore (emit g ~flags Categories.C_taguntag (Lir.Load (sm, r, -1)));
        let idx =
          emit g ~flags Categories.C_taguntag
            (Lir.Branch (Lir.Ne, sm, Lir.Imm (heapnum_word g), -1))
        in
        add_fixup g idx (F_deopt did));
      ignore (emit g Categories.C_taguntag (Lir.FLoad (fd, r, 7)));
      land_here g bend);
    fd
  end

(** Location of bc reg [r] as a tagged value (boxing double-repr regs). *)
let tagged_loc g (_st : state) r : Lir.reg =
  if g.reprs.(r) = Lir.R_tagged then r
  else begin
    let d = scratch g in
    ignore
      (emit g Categories.C_taguntag
         (Lir.CallRt (Lir.Rt_box_double, [||], [| r |], Some d, None)));
    d
  end

(** Location of bc reg [r] as a *tagged SMI*, guarded by a Check SMI when the
    type cannot prove it. *)
let tagged_smi_loc g (st : state) r ~bc_pc : Lir.reg =
  if g.reprs.(r) = Lir.R_double then begin
    (* double-repr value used where an SMI is required: deopt on inexact *)
    let did =
      mk_deopt g ~reason:(Reason.make Reason.K_smi_convert Reason.C_inexact_int32 ~pc:bc_pc)
        ~bc_pc ~result_into:None
    in
    let s = scratch g in
    ignore (emit g Categories.C_taguntag (Lir.TruncFI (s, r)));
    let f2 = scratch_f g in
    ignore (emit g Categories.C_taguntag (Lir.CvtIF (f2, s)));
    let idx =
      emit g ~flags:(Categories.flag_of_check_kind Categories.Ck_smi_convert)
        Categories.C_check (Lir.FBranch (Lir.FNe, r, f2, -1))
    in
    add_fixup g idx (F_deopt did);
    let d = scratch g in
    ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Shl, d, s, Lir.Imm 1)));
    d
  end
  else begin
    (match st.tys.(r) with
    | Smi -> ()
    | _ ->
      let flags = if st.fl.(r) then Categories.flag_guards_obj_load else 0 in
      let flags = flags lor Categories.flag_of_check_kind Categories.Ck_smi in
      let did =
        mk_deopt g ~reason:(Reason.make Reason.K_check_smi Reason.C_not_smi ~pc:bc_pc)
          ~bc_pc ~result_into:None
      in
      check_smi g ~flags ~cat:Categories.C_check r did);
    r
  end

(** Raw (untagged) int32 of bc reg [r] (indexes, bitwise operands). *)
let raw_int_loc g (st : state) r ~bc_pc : Lir.reg =
  if g.reprs.(r) = Lir.R_double then begin
    let s = scratch g in
    ignore (emit g Categories.C_taguntag (Lir.TruncFI (s, r)));
    s
  end
  else begin
    let t = tagged_smi_loc g st r ~bc_pc in
    let s = scratch g in
    ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Sar, s, t, Lir.Imm 1)));
    s
  end

(** Write a tagged value in [src] into bc reg [d], honoring [d]'s repr. *)
let def_from_tagged g d src ~bc_pc =
  if g.reprs.(d) = Lir.R_tagged then begin
    if src <> d then ignore (emit g Categories.C_other (Lir.Mov (d, src)))
  end
  else begin
    (* d is double-repr, src must be numeric: untag via the generic
       diamond. The deopt entry is reserved (it keeps the deopt numbering)
       though no branch of the diamond targets it. *)
    ignore
      (mk_deopt g ~reason:(Reason.make Reason.K_untag Reason.C_not_heapnum ~pc:bc_pc)
         ~bc_pc ~result_into:None);
    let bheap =
      emit g Categories.C_taguntag (Lir.Branch (Lir.Bit_set, src, Lir.Imm 1, -1))
    in
    let s = scratch g in
    ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Sar, s, src, Lir.Imm 1)));
    ignore (emit g Categories.C_taguntag (Lir.CvtIF (d, s)));
    let bend = emit g Categories.C_other (Lir.Jmp (-1)) in
    land_here g bheap;
    ignore (emit g Categories.C_taguntag (Lir.FLoad (d, src, 7)));
    land_here g bend
  end

(* --- branches --- *)

let negate_cond : Lir.cond -> Lir.cond = function
  | Lir.Eq -> Lir.Ne | Ne -> Eq | Lt -> Ge | Ge -> Lt | Le -> Gt | Gt -> Le
  | Bit_set -> Bit_clear | Bit_clear -> Bit_set

let negate_fcond : Lir.fcond -> Lir.fcond = function
  | Lir.FEq -> Lir.FNe | FNe -> FEq
  | FLt -> FNlt | FLe -> FNle | FGt -> FNgt | FGe -> FNge
  | FNlt -> FLt | FNle -> FLe | FNgt -> FGt | FNge -> FGe

let cond_of_binop : Tce_minijs.Ast.binop -> Lir.cond = function
  | Tce_minijs.Ast.Lt -> Lir.Lt | Le -> Le | Gt -> Gt | Ge -> Ge
  | Eq -> Eq | Ne -> Ne
  | _ -> invalid_arg "cond_of_binop"

let fcond_of_binop : Tce_minijs.Ast.binop -> Lir.fcond = function
  | Tce_minijs.Ast.Lt -> Lir.FLt | Le -> FLe | Gt -> FGt | Ge -> FGe
  | Eq -> FEq | Ne -> FNe
  | _ -> invalid_arg "fcond_of_binop"

(** Emit a branch on the truthiness of bc reg [r] (JS ToBoolean). Jumps to
    bytecode pc [target] when truthiness = [jump_if]. *)
let truth_branch g (st : state) r ~jump_if ~bc_pc ~target =
  ignore bc_pc;
  let br_bc idx = add_fixup g idx (F_bc target) in
  if g.reprs.(r) = Lir.R_double then begin
    let fz = scratch_f g in
    ignore (emit g Categories.C_other (Lir.FMovImm (fz, 0.0)));
    let c = if jump_if then Lir.FNe else Lir.FEq in
    br_bc (emit g Categories.C_other (Lir.FBranch (c, r, fz, -1)))
  end
  else
    match st.tys.(r) with
    | Bool ->
      let c = if jump_if then Lir.Ne else Lir.Eq in
      br_bc (emit g Categories.C_other (Lir.Branch (c, r, Lir.Imm (false_imm g), -1)))
    | Cls c when c = boolean_id g.genv ->
      (* a speculated-Boolean slot holds the true/false oddballs *)
      let c = if jump_if then Lir.Ne else Lir.Eq in
      br_bc (emit g Categories.C_other (Lir.Branch (c, r, Lir.Imm (false_imm g), -1)))
    | Smi ->
      let c = if jump_if then Lir.Ne else Lir.Eq in
      br_bc (emit g Categories.C_other (Lir.Branch (c, r, Lir.Imm 0, -1)))
    | Null -> if not jump_if then br_bc (emit g Categories.C_other (Lir.Jmp (-1)))
    | Cls c when c = null_id g.genv ->
      if not jump_if then br_bc (emit g Categories.C_other (Lir.Jmp (-1)))
    | Cls c
      when c <> heapnum_id g.genv && c <> string_id g.genv ->
      (* genuine objects are always truthy *)
      if jump_if then br_bc (emit g Categories.C_other (Lir.Jmp (-1)))
    | Num ->
      let fv = float_loc g st r ~bc_pc in
      let fz = scratch_f g in
      ignore (emit g Categories.C_other (Lir.FMovImm (fz, 0.0)));
      let c = if jump_if then Lir.FNe else Lir.FEq in
      br_bc (emit g Categories.C_other (Lir.FBranch (c, fv, fz, -1)))
    | _ ->
      (* generic ToBoolean stub *)
      let d = scratch g in
      ignore
        (emit g Categories.C_other
           (Lir.CallRt (Lir.Rt_to_bool, [| r |], [||], Some d, None)));
      let c = if jump_if then Lir.Eq else Lir.Ne in
      br_bc (emit g Categories.C_other (Lir.Branch (c, d, Lir.Imm (true_imm g), -1)))

(** The compare kind chosen for a comparison site. *)
type cmp_kind = Ck_smi | Ck_float | Ck_ref | Ck_rt

let compare_kind g (st : state) op a b slot =
  let fbk = Feedback.binop_of g.genv.fn.Bytecode.fb.(slot) in
  let relational =
    match op with
    | Tce_minijs.Ast.Lt | Le | Gt | Ge -> true
    | _ -> false
  in
  let hn = heapnum_id g.genv in
  let pointerish t =
    match t with
    | Bool | Null | Str -> true
    | Cls c -> c <> hn
    | _ -> false
  in
  match fbk with
  | Feedback.Bf_smi -> Ck_smi
  | Bf_number -> Ck_float
  | Bf_string -> if relational then Ck_rt else Ck_ref  (* interned strings *)
  | Bf_ref -> if relational then Ck_rt else Ck_ref
  | _ ->
    if (not relational) && pointerish st.tys.(a) && pointerish st.tys.(b) then Ck_ref
    else Ck_rt

(** Emit a comparison fused into a branch: jump to bc [target] when
    [op a b = jump_if]. *)
let fused_compare g (st : state) op a b slot ~jump_if ~target ~bc_pc =
  match compare_kind g st op a b slot with
  | Ck_smi ->
    let ta = tagged_smi_loc g st a ~bc_pc in
    let tb = tagged_smi_loc g st b ~bc_pc in
    let c = cond_of_binop op in
    let c = if jump_if then c else negate_cond c in
    let idx = emit g Categories.C_other (Lir.Branch (c, ta, Lir.Reg tb, -1)) in
    add_fixup g idx (F_bc target)
  | Ck_float ->
    let fa = float_loc g st a ~bc_pc in
    let fb = float_loc g st b ~bc_pc in
    let c = fcond_of_binop op in
    let c = if jump_if then c else negate_fcond c in
    let idx = emit g Categories.C_other (Lir.FBranch (c, fa, fb, -1)) in
    add_fixup g idx (F_bc target)
  | Ck_ref ->
    let ta = tagged_loc g st a in
    let tb = tagged_loc g st b in
    let c = cond_of_binop op in
    let c = if jump_if then c else negate_cond c in
    let idx = emit g Categories.C_other (Lir.Branch (c, ta, Lir.Reg tb, -1)) in
    add_fixup g idx (F_bc target)
  | Ck_rt ->
    let ta = tagged_loc g st a in
    let tb = tagged_loc g st b in
    let d = scratch g in
    ignore
      (emit g Categories.C_other
         (Lir.CallRt (Lir.Rt_generic_binop op, [| ta; tb |], [||], Some d, None)));
    let c = if jump_if then Lir.Eq else Lir.Ne in
    let idx =
      emit g Categories.C_other (Lir.Branch (c, d, Lir.Imm (true_imm g), -1))
    in
    add_fixup g idx (F_bc target)

(** Materialize a comparison result as a boolean into bc reg [d]. *)
let materialized_compare g (st : state) op d a b slot ~bc_pc =
  match compare_kind g st op a b slot with
  | Ck_rt ->
    let ta = tagged_loc g st a in
    let tb = tagged_loc g st b in
    ignore
      (emit g Categories.C_other
         (Lir.CallRt (Lir.Rt_generic_binop op, [| ta; tb |], [||], Some d, None)))
  | k ->
    ignore (emit g Categories.C_other (Lir.MovImm (d, true_imm g)));
    let idx =
      match k with
      | Ck_smi ->
        let ta = tagged_smi_loc g st a ~bc_pc in
        let tb = tagged_smi_loc g st b ~bc_pc in
        emit g Categories.C_other
          (Lir.Branch (cond_of_binop op, ta, Lir.Reg tb, -1))
      | Ck_float ->
        let fa = float_loc g st a ~bc_pc in
        let fb = float_loc g st b ~bc_pc in
        emit g Categories.C_other (Lir.FBranch (fcond_of_binop op, fa, fb, -1))
      | Ck_ref ->
        let ta = tagged_loc g st a in
        let tb = tagged_loc g st b in
        emit g Categories.C_other
          (Lir.Branch (cond_of_binop op, ta, Lir.Reg tb, -1))
      | Ck_rt -> assert false
    in
    ignore (emit g Categories.C_other (Lir.MovImm (d, false_imm g)));
    land_here g idx

(* --- movClassIDArray hoisting (paper §4.2.1.3) --- *)

(** Find call-free loops whose elements stores have a loop-invariant
    receiver, and assign up to three of the four regArrayObjectClassId
    registers to them (k = 3 stays free for unhoisted stores). *)
let compute_hoists env (store_tys : ty array) hoist_headers hoist_sites =
  if env.mechanism && env.hoisting then begin
    let code = env.fn.Bytecode.code in
    let fb = env.fn.Bytecode.fb in
    let n = Array.length code in
    (* backedges, widest span first (prefer outer loops) *)
    let backedges = ref [] in
    Array.iteri
      (fun s op ->
        match op with
        | Bytecode.Jump t | JumpIfFalse (_, t) | JumpIfTrue (_, t) when t <= s ->
          backedges := (t, s) :: !backedges
        | _ -> ())
      code;
    let backedges =
      List.sort (fun (t1, s1) (t2, s2) -> compare (s2 - t2) (s1 - t1)) !backedges
    in
    let k_next = ref 0 in
    List.iter
      (fun (t, s) ->
        let body_has p =
          let found = ref false in
          for pc = t to min s (n - 1) do
            if p code.(pc) then found := true
          done;
          !found
        in
        let call_free =
          not
            (body_has (function
              | Bytecode.Call _ | New _ | CallB _ | AllocCtor _ -> true
              | _ -> false))
        in
        if call_free then
          for pc = t to min s (n - 1) do
            match code.(pc) with
            | Bytecode.SetElem (o, _, _, slot)
              when (not (Hashtbl.mem hoist_sites pc)) && !k_next < 3 -> (
              match Feedback.elem_of fb.(slot) with
              | Feedback.Eic_mono classid
                when (match elem_load_ty env ~classid with
                     | `Smi | `Tagged _ -> true
                     | _ -> false)
                     && CL.is_valid env.cl ~classid ~line:0
                          ~pos:Layout.elements_ptr_slot
                     &&
                     (* the store must actually be special *)
                     not
                       (match CL.profiled_class env.cl ~classid ~line:0
                                ~pos:Layout.elements_ptr_slot
                        with
                       | Some p -> (
                         match store_tys.(pc) with
                         | Smi -> p = Layout.smi_classid
                         | Cls c -> p = c
                         | _ -> false)
                       | None -> false) ->
                let invariant =
                  not
                    (body_has (fun op' ->
                         (match Bytecode.def_reg op' with
                         | Some d -> d = o
                         | None -> false)
                         ||
                         match op' with
                         | Bytecode.SetProp (o', _, _, _) -> o' = o
                         | _ -> false))
                in
                if invariant then begin
                  (* share k with an existing hoist of the same receiver at
                     this header *)
                  let existing =
                    match Hashtbl.find_opt hoist_headers t with
                    | Some l -> List.find_opt (fun (_, r) -> r = o) l
                    | None -> None
                  in
                  let k =
                    match existing with
                    | Some (k, _) -> k
                    | None ->
                      let k = !k_next in
                      incr k_next;
                      Hashtbl.replace hoist_headers t
                        ((k, o)
                        :: Option.value ~default:[]
                             (Hashtbl.find_opt hoist_headers t));
                      k
                  in
                  Hashtbl.replace hoist_sites pc k
                end
              | _ -> ())
            | _ -> ()
          done)
      backedges
  end

(* --- per-op emission --- *)

(** Static ClassID of a value of type [ty], when provable. *)
let static_classid g (ty : ty) : int option =
  let reg = g.genv.heap.Heap.reg in
  match ty with
  | Smi -> Some Layout.smi_classid
  | Cls c -> Some c
  | Bool -> Some (Hidden_class.Registry.boolean_class reg).Hidden_class.id
  | Null -> Some (Hidden_class.Registry.null_class reg).Hidden_class.id
  | Str -> Some (Hidden_class.Registry.string_class reg).Hidden_class.id
  | Num | Any -> None

(** Would a store of a value with static type [vty] into the slot provably
    keep its profile intact? (Initialized, valid, and the profiled class is
    exactly the value's static class.) Such stores cannot raise the
    misspeculation exception, so the compiler emits a plain store — a sound
    strengthening of the paper's emission rule, see DESIGN.md. *)
let store_provably_safe g ~classid ~line ~pos vty =
  match CL.profiled_class g.genv.cl ~classid ~line ~pos with
  | Some p -> static_classid g vty = Some p
  | None -> false

(** Emit a specialized property/elements store's write itself, choosing
    between movStoreClassCache and a plain store per the paper's rule
    ("special stores for slots still considered monomorphic"). *)
let emit_prop_store g ~any_valid ~classid ~line ~pos ~base ~off ~value ~bc_pc =
  if g.genv.mechanism && any_valid then begin
    ignore (emit g Categories.C_ccop (Lir.MovClassID value));
    let did =
      mk_deopt g
        ~reason:(Reason.make ~classid Reason.K_cc (Reason.C_cc (Reason.Cc_prop_store { line; pos })) ~pc:bc_pc)
        ~bc_pc:(bc_pc + 1) ~result_into:None
    in
    ignore
      (emit g Categories.C_other (Lir.StoreClassCache (base, off, Lir.Reg value, did)))
  end
  else begin
    ignore (emit g Categories.C_other (Lir.Store (base, off, Lir.Reg value)));
    if not g.genv.mechanism then
      ignore
        (emit g Categories.C_other
           (Lir.ProfileStore (base, line, pos, Lir.Ps_reg value)))
  end

let elements_off = Layout.elements_data_offset

(** Specialized elements-array bounds/setup for a receiver in [o] of class
    [classid] (already map-checked): loads the elements base and length.
    Returns (elems_reg, len_reg). *)
let load_elements g o =
  let elems = scratch g in
  ignore
    (emit g Categories.C_other
       (Lir.Load (elems, o, (Layout.elements_ptr_slot * 8) - 1)));
  let len = scratch g in
  ignore
    (emit g Categories.C_other
       (Lir.Load (len, o, (Layout.elements_len_slot * 8) - 1)));
  (elems, len)

let gen_op g pc (bc : Bytecode.bc) (st : state) ~(skip_next : bool ref) =
  let env = g.genv in
  let fb = env.fn.Bytecode.fb in
  let code = env.fn.Bytecode.code in
  let flags_of r = if st.fl.(r) then Categories.flag_guards_obj_load else 0 in
  (* write a natural-tagged value in a scratch/bc reg into dest bc reg *)
  let def_float d fsrc =
    if g.reprs.(d) = Lir.R_double then begin
      if fsrc <> d then ignore (emit g Categories.C_other (Lir.FMov (d, fsrc)))
    end
    else begin
      let s = scratch g in
      ignore
        (emit g Categories.C_taguntag
           (Lir.CallRt (Lir.Rt_box_double, [||], [| fsrc |], Some s, None)));
      ignore (emit g Categories.C_other (Lir.Mov (d, s)))
    end
  in
  (* destination for float-producing ops: the bc freg itself when unboxed *)
  let float_dest d = if g.reprs.(d) = Lir.R_double then d else scratch_f g in
  match bc with
  | Bytecode.LoadInt (d, i) ->
    if g.reprs.(d) = Lir.R_double then
      ignore (emit g Categories.C_other (Lir.FMovImm (d, float_of_int i)))
    else ignore (emit g Categories.C_other (Lir.MovImm (d, Tce_vm.Value.smi i)))
  | LoadNum (d, x) ->
    if g.reprs.(d) = Lir.R_double then
      ignore (emit g Categories.C_other (Lir.FMovImm (d, x)))
    else begin
      (* embedded heap-number constant (float literals are never SMIs) *)
      let v = Heap.float_const env.heap x in
      ignore (emit g Categories.C_other (Lir.MovImm (d, v)))
    end
  | LoadStr (d, s) ->
    ignore
      (emit g Categories.C_other (Lir.MovImm (d, Heap.intern_string env.heap s)))
  | LoadBool (d, b) ->
    ignore
      (emit g Categories.C_other
         (Lir.MovImm (d, if b then true_imm g else false_imm g)))
  | LoadNull d -> ignore (emit g Categories.C_other (Lir.MovImm (d, null_imm g)))
  | Move (d, s) -> (
    match (g.reprs.(d), g.reprs.(s)) with
    | Lir.R_tagged, Lir.R_tagged ->
      if d <> s then ignore (emit g Categories.C_other (Lir.Mov (d, s)))
    | R_double, R_double ->
      if d <> s then ignore (emit g Categories.C_other (Lir.FMov (d, s)))
    | R_double, R_tagged ->
      let f = float_loc g st s ~bc_pc:pc in
      ignore (emit g Categories.C_other (Lir.FMov (d, f)))
    | R_tagged, R_double -> def_float d s)
  | BinOp (op, d, a, b, slot) -> (
    let fbk = Feedback.binop_of fb.(slot) in
    match op with
    | Tce_minijs.Ast.LAnd | LOr -> bailout "unexpected logical binop in bytecode"
    | Lt | Le | Gt | Ge | Eq | Ne -> (
      (* fuse with a consuming conditional jump over a temp *)
      match (if pc + 1 < Array.length code then Some code.(pc + 1) else None) with
      | Some (Bytecode.JumpIfFalse (r, target))
        when r = d && d >= env.fn.Bytecode.n_named ->
        fused_compare g st op a b slot ~jump_if:false ~target ~bc_pc:pc;
        skip_next := true
      | Some (Bytecode.JumpIfTrue (r, target))
        when r = d && d >= env.fn.Bytecode.n_named ->
        fused_compare g st op a b slot ~jump_if:true ~target ~bc_pc:pc;
        skip_next := true
      | _ -> materialized_compare g st op d a b slot ~bc_pc:pc)
    | Add | Sub | Mul -> (
      match fbk with
      | Feedback.Bf_smi -> (
        let ta = tagged_smi_loc g st a ~bc_pc:pc in
        let tb = tagged_smi_loc g st b ~bc_pc:pc in
        let did =
          mk_deopt g ~reason:(Reason.make Reason.K_math (Reason.C_overflow Reason.Ov_arith) ~pc)
            ~bc_pc:pc ~result_into:None
        in
        match op with
        | Tce_minijs.Ast.Add | Sub ->
          let alu = if op = Tce_minijs.Ast.Add then Lir.Add else Lir.Sub in
          let idx = emit g Categories.C_math (Lir.AluOv (alu, d, ta, Lir.Reg tb, -1)) in
          add_fixup g idx (F_deopt did)
        | Mul ->
          let s = scratch g in
          ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Sar, s, ta, Lir.Imm 1)));
          let idx = emit g Categories.C_math (Lir.AluOv (Lir.Mul, d, s, Lir.Reg tb, -1)) in
          add_fixup g idx (F_deopt did)
        | _ -> assert false)
      | Bf_number ->
        let fa = float_loc g st a ~bc_pc:pc in
        let fb' = float_loc g st b ~bc_pc:pc in
        let fd = float_dest d in
        let fop =
          match op with
          | Tce_minijs.Ast.Add -> Lir.FAdd (fd, fa, fb')
          | Sub -> FSub (fd, fa, fb')
          | Mul -> FMul (fd, fa, fb')
          | _ -> assert false
        in
        ignore (emit g Categories.C_other fop);
        if g.reprs.(d) <> Lir.R_double then def_float d fd
      | Bf_string when op = Tce_minijs.Ast.Add ->
        let ta = tagged_loc g st a and tb = tagged_loc g st b in
        ignore
          (emit g Categories.C_other
             (Lir.CallRt (Lir.Rt_generic_binop op, [| ta; tb |], [||], Some d, None)))
      | Bf_none ->
        let did =
          mk_deopt g ~reason:(Reason.make Reason.K_cold (Reason.C_cold Reason.Cold_arith) ~pc)
            ~bc_pc:pc ~result_into:None
        in
        ignore (emit g Categories.C_other (Lir.Deopt did))
      | _ ->
        let ta = tagged_loc g st a and tb = tagged_loc g st b in
        ignore
          (emit g Categories.C_other
             (Lir.CallRt (Lir.Rt_generic_binop op, [| ta; tb |], [||], Some d, None))))
    | Div -> (
      match fbk with
      | Feedback.Bf_smi ->
        (* integer division specialized on exactness (math assumptions) *)
        let ta = tagged_smi_loc g st a ~bc_pc:pc in
        let tb = tagged_smi_loc g st b ~bc_pc:pc in
        let did =
          mk_deopt g ~reason:(Reason.make Reason.K_math Reason.C_div_inexact ~pc)
            ~bc_pc:pc ~result_into:None
        in
        let sa = scratch g and sb = scratch g in
        ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Sar, sa, ta, Lir.Imm 1)));
        ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Sar, sb, tb, Lir.Imm 1)));
        let i0 = emit g Categories.C_math (Lir.Branch (Lir.Eq, sb, Lir.Imm 0, -1)) in
        add_fixup g i0 (F_deopt did);
        let q = scratch g in
        ignore (emit g Categories.C_other (Lir.Alu (Lir.Div, q, sa, Lir.Reg sb)));
        let m = scratch g in
        ignore (emit g Categories.C_math (Lir.Alu (Lir.Mul, m, q, Lir.Reg sb)));
        let i1 = emit g Categories.C_math (Lir.Branch (Lir.Ne, m, Lir.Reg sa, -1)) in
        add_fixup g i1 (F_deopt did);
        let i2 = emit g Categories.C_math (Lir.AluOv (Lir.Shl, d, q, Lir.Imm 1, -1)) in
        add_fixup g i2 (F_deopt did)
      | Bf_number -> (
        let fa = float_loc g st a ~bc_pc:pc in
        let recip =
          match st.cv.(b) with
          | C_float c when c <> 0.0 && Float.is_integer (Float.log2 (Float.abs c)) ->
            Some (1.0 /. c)  (* division by a power of two is exact *)
          | _ -> None
        in
        match recip with
        | Some r ->
          let fd = float_dest d in
          let fc = scratch_f g in
          ignore (emit g Categories.C_other (Lir.FMovImm (fc, r)));
          ignore (emit g Categories.C_other (Lir.FMul (fd, fa, fc)));
          if g.reprs.(d) <> Lir.R_double then def_float d fd
        | None ->
          let fb' = float_loc g st b ~bc_pc:pc in
          let fd = float_dest d in
          ignore (emit g Categories.C_other (Lir.FDiv (fd, fa, fb')));
          if g.reprs.(d) <> Lir.R_double then def_float d fd)
      | Bf_none ->
        let did =
          mk_deopt g ~reason:(Reason.make Reason.K_cold (Reason.C_cold Reason.Cold_arith) ~pc)
            ~bc_pc:pc ~result_into:None
        in
        ignore (emit g Categories.C_other (Lir.Deopt did))
      | _ ->
        let ta = tagged_loc g st a and tb = tagged_loc g st b in
        ignore
          (emit g Categories.C_other
             (Lir.CallRt (Lir.Rt_generic_binop op, [| ta; tb |], [||], Some d, None))))
    | Mod -> (
      match fbk with
      | Feedback.Bf_smi when
          (match st.cv.(b) with
          | C_int m -> m > 0 && m land (m - 1) = 0
          | _ -> false) ->
        (* power-of-two modulus: AND with sign fixup (Crankshaft strength
           reduction), replacing the 20-cycle integer remainder *)
        let m = match st.cv.(b) with C_int m -> m | _ -> assert false in
        let ta = tagged_smi_loc g st a ~bc_pc:pc in
        let sa = scratch g in
        ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Sar, sa, ta, Lir.Imm 1)));
        let r = scratch g in
        ignore (emit g Categories.C_other (Lir.Alu (Lir.And, r, sa, Lir.Imm (m - 1))));
        let i0 = emit g Categories.C_other (Lir.Branch (Lir.Ge, sa, Lir.Imm 0, -1)) in
        let i1 = emit g Categories.C_other (Lir.Branch (Lir.Eq, r, Lir.Imm 0, -1)) in
        ignore (emit g Categories.C_other (Lir.Alu (Lir.Sub, r, r, Lir.Imm m)));
        land_here g i0;
        land_here g i1;
        ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Shl, d, r, Lir.Imm 1)))
      | Feedback.Bf_smi ->
        let ta = tagged_smi_loc g st a ~bc_pc:pc in
        let tb = tagged_smi_loc g st b ~bc_pc:pc in
        let did =
          mk_deopt g ~reason:(Reason.make Reason.K_math Reason.C_mod_zero ~pc)
            ~bc_pc:pc ~result_into:None
        in
        let sa = scratch g and sb = scratch g in
        ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Sar, sa, ta, Lir.Imm 1)));
        ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Sar, sb, tb, Lir.Imm 1)));
        let i0 = emit g Categories.C_math (Lir.Branch (Lir.Eq, sb, Lir.Imm 0, -1)) in
        add_fixup g i0 (F_deopt did);
        let r = scratch g in
        ignore (emit g Categories.C_other (Lir.Alu (Lir.Rem, r, sa, Lir.Reg sb)));
        ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Shl, d, r, Lir.Imm 1)))
      | Bf_number ->
        let fa = float_loc g st a ~bc_pc:pc in
        let fb' = float_loc g st b ~bc_pc:pc in
        let fd = float_dest d in
        ignore
          (emit g Categories.C_other
             (Lir.CallRt (Lir.Rt_fmod, [||], [| fa; fb' |], None, Some fd)));
        if g.reprs.(d) <> Lir.R_double then def_float d fd
      | Bf_none ->
        let did =
          mk_deopt g ~reason:(Reason.make Reason.K_cold (Reason.C_cold Reason.Cold_arith) ~pc)
            ~bc_pc:pc ~result_into:None
        in
        ignore (emit g Categories.C_other (Lir.Deopt did))
      | _ ->
        let ta = tagged_loc g st a and tb = tagged_loc g st b in
        ignore
          (emit g Categories.C_other
             (Lir.CallRt (Lir.Rt_generic_binop op, [| ta; tb |], [||], Some d, None))))
    | BitAnd | BitOr | BitXor | Shl | Shr | Ushr ->
      let ra = raw_int_loc g st a ~bc_pc:pc in
      let rb = raw_int_loc g st b ~bc_pc:pc in
      let alu =
        match op with
        | Tce_minijs.Ast.BitAnd -> Lir.And
        | BitOr -> Lir.Or
        | BitXor -> Lir.Xor
        | Shl -> Lir.Shl
        | Shr -> Lir.Sar  (* JS >> is arithmetic *)
        | Ushr -> Lir.Shr
        | _ -> assert false
      in
      let s = scratch g in
      if op = Tce_minijs.Ast.Ushr then begin
        (* uint32 result: mask to 32 bits first (the host word is wider, so
           a logical shift of a negative value would escape the overflow
           check), then overflow-checked retag *)
        let m = scratch g in
        ignore
          (emit g Categories.C_other (Lir.Alu (Lir.And, m, ra, Lir.Imm 0xffffffff)));
        ignore (emit g Categories.C_other (Lir.Alu (Lir.Shr, s, m, Lir.Reg rb)));
        let did =
          mk_deopt g ~reason:(Reason.make Reason.K_math (Reason.C_overflow Reason.Ov_ushr) ~pc)
            ~bc_pc:pc ~result_into:None
        in
        let idx = emit g Categories.C_math (Lir.AluOv (Lir.Shl, d, s, Lir.Imm 1, -1)) in
        add_fixup g idx (F_deopt did)
      end
      else begin
        ignore (emit g Categories.C_other (Lir.Alu32 (alu, s, ra, Lir.Reg rb)));
        ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Shl, d, s, Lir.Imm 1)))
      end)
  | UnOp (op, d, a) -> (
    match op with
    | Tce_minijs.Ast.Neg -> (
      match st.tys.(a) with
      | Smi ->
        let ta = tagged_smi_loc g st a ~bc_pc:pc in
        let z = scratch g in
        ignore (emit g Categories.C_other (Lir.MovImm (z, 0)));
        let did =
          mk_deopt g ~reason:(Reason.make Reason.K_math (Reason.C_overflow Reason.Ov_negate) ~pc)
            ~bc_pc:pc ~result_into:None
        in
        let idx = emit g Categories.C_math (Lir.AluOv (Lir.Sub, d, z, Lir.Reg ta, -1)) in
        add_fixup g idx (F_deopt did)
      | Num | Cls _ ->
        let fa = float_loc g st a ~bc_pc:pc in
        let fd = float_dest d in
        ignore (emit g Categories.C_other (Lir.FNeg (fd, fa)));
        if g.reprs.(d) <> Lir.R_double then def_float d fd
      | _ ->
        let ta = tagged_loc g st a in
        ignore
          (emit g Categories.C_other
             (Lir.CallRt (Lir.Rt_generic_unop op, [| ta |], [||], Some d, None))))
    | Not -> (
      match st.tys.(a) with
      | Bool ->
        ignore (emit g Categories.C_other (Lir.MovImm (d, true_imm g)));
        let idx =
          emit g Categories.C_other
            (Lir.Branch (Lir.Eq, a, Lir.Imm (false_imm g), -1))
        in
        ignore (emit g Categories.C_other (Lir.MovImm (d, false_imm g)));
        land_here g idx
      | _ ->
        let ta = tagged_loc g st a in
        ignore
          (emit g Categories.C_other
             (Lir.CallRt (Lir.Rt_generic_unop op, [| ta |], [||], Some d, None))))
    | BitNot ->
      let ra = raw_int_loc g st a ~bc_pc:pc in
      let s = scratch g in
      ignore (emit g Categories.C_other (Lir.Alu32 (Lir.Xor, s, ra, Lir.Imm (-1))));
      ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Shl, d, s, Lir.Imm 1))))
  | GetProp (d, o, name, slot) -> (
    ignore name;
    match Feedback.prop_of fb.(slot) with
    | Feedback.Ic_mono { classid; slot = s; _ }
      when env.checked_load && (not env.mechanism)
           && g.reprs.(d) = Lir.R_tagged
           && st.tys.(o) <> Cls classid ->
      (* Checked Load: one fused instruction, check executed in hardware *)
      let line, pos = Layout.line_pos_of_slot s in
      (match invariant_slot_ty env ~classid ~slot:s with
      | Some _ -> ()
      | None -> ignore (emit g Categories.C_other (Lir.Profile (o, line, pos))));
      attr_site g ~pc ~kind:Categories.Ck_checked_load ~classid
        ~note:"checked-load baseline: executed in hardware, never removed"
        (Ledger.Kept Ledger.Kc_mechanism_off);
      let did =
        mk_deopt g ~reason:(Reason.make ~classid Reason.K_checked_load Reason.C_not_class ~pc)
          ~bc_pc:pc ~result_into:None
      in
      let expected =
        Hidden_class.class_word (class_of_id env classid) ~line
      in
      ignore
        (emit g
           ~flags:(flags_of o lor Categories.flag_of_check_kind Categories.Ck_checked_load)
           Categories.C_check
           (Lir.CheckedLoad (d, o, (s * 8) - 1, expected, did)))
    | Feedback.Ic_mono { classid; slot = s; _ } ->
      check_map g st ~flags:(flags_of o) o classid ~bc_pc:pc;
      let line, pos = Layout.line_pos_of_slot s in
      let ty, dep = prop_load_ty env ~classid ~slot:s in
      (match invariant_slot_ty env ~classid ~slot:s with
      | Some _ -> ()  (* built-in slots are not "object load accesses" *)
      | None ->
        ignore (emit g Categories.C_other (Lir.Profile (o, line, pos)));
        (* value-type speculation on the loaded slot: when the Class List
           types it, the downstream checks on the value never exist *)
        if Ledger.on env.attr then begin
          let note = Printf.sprintf "slot(%d,%d)" line pos in
          match dep with
          | Some _ ->
            attr_site g ~pc ~kind:Categories.Ck_map ~classid ~note Ledger.Removed
          | None ->
            attr_site g ~pc ~kind:Categories.Ck_map ~classid ~note
              (Ledger.Kept (slot_keep_cause g ~classid ~line ~pos))
        end);
      (match dep with Some (c, l, p) -> add_dep g c l p | None -> ());
      if g.reprs.(d) = Lir.R_double then begin
        (* speculated heap-number property: load + direct payload load *)
        let sv = scratch g in
        ignore (emit g Categories.C_other (Lir.Load (sv, o, (s * 8) - 1)));
        match ty with
        | Some (Cls c) when c = heapnum_id env ->
          ignore (emit g Categories.C_taguntag (Lir.FLoad (d, sv, 7)))
        | _ ->
          (* untag via generic path *)
          def_from_tagged g d sv ~bc_pc:pc
      end
      else ignore (emit g Categories.C_other (Lir.Load (d, o, (s * 8) - 1)))
    | Ic_poly shapes
      when List.for_all
             (fun (sh : Feedback.shape) ->
               sh.slot = (List.hd shapes).slot && sh.transition_to = None)
             shapes ->
      let s = (List.hd shapes).Feedback.slot in
      attr_site g ~pc ~kind:Categories.Ck_map
        ~classid:(List.hd shapes).Feedback.classid
        (Ledger.Kept (Ledger.Kc_poly { shapes = List.length shapes }));
      let did =
        mk_deopt g
          ~reason:(Reason.make ~classid:(List.hd shapes).Feedback.classid
                     Reason.K_check_map (Reason.C_poly_ic Reason.A_load) ~pc)
          ~bc_pc:pc ~result_into:None
      in
      let mapf = flags_of o lor Categories.flag_of_check_kind Categories.Ck_map in
      (match st.tys.(o) with
      | Smi -> ignore (emit g ~flags:mapf Categories.C_check (Lir.Deopt did))
      | Any | Num ->
        check_non_smi g
          ~flags:(flags_of o lor Categories.flag_of_check_kind Categories.Ck_non_smi)
          ~cat:Categories.C_check o did
      | _ -> ());
      let mw = scratch g in
      ignore (emit g ~flags:mapf Categories.C_check (Lir.Load (mw, o, -1)));
      let n = List.length shapes in
      let ok_branches =
        List.filteri (fun i _ -> i < n - 1) shapes
        |> List.map (fun (sh : Feedback.shape) ->
               emit g ~flags:mapf Categories.C_check
                 (Lir.Branch (Lir.Eq, mw, Lir.Imm (class_word0 g sh.classid), -1)))
      in
      let last = List.nth shapes (n - 1) in
      let idx =
        emit g ~flags:mapf Categories.C_check
          (Lir.Branch (Lir.Ne, mw, Lir.Imm (class_word0 g last.classid), -1))
      in
      add_fixup g idx (F_deopt did);
      List.iter (fun b -> land_here g b) ok_branches;
      let line, pos = Layout.line_pos_of_slot s in
      ignore (emit g Categories.C_other (Lir.Profile (o, line, pos)));
      (* per-class speculation: all shapes must agree for the type to hold *)
      List.iter
        (fun (sh : Feedback.shape) ->
          match prop_load_ty env ~classid:sh.classid ~slot:s with
          | _, Some (c, l, p) -> add_dep g c l p
          | _ -> ())
        shapes;
      ignore (emit g Categories.C_other (Lir.Load (d, o, (s * 8) - 1)));
      if g.reprs.(d) = Lir.R_double then begin
        def_from_tagged g d d ~bc_pc:pc
      end
    | Ic_poly _ | Ic_mega ->
      attr_site g ~pc ~kind:Categories.Ck_map ~note:"generic property load"
        (Ledger.Kept Ledger.Kc_mega);
      let to_ = tagged_loc g st o in
      ignore
        (emit g Categories.C_other
           (Lir.CallRt (Lir.Rt_generic_get_prop name, [| to_ |], [||], Some d, None)));
      if g.reprs.(d) = Lir.R_double then begin
        def_from_tagged g d d ~bc_pc:pc
      end
    | Ic_uninit ->
      attr_site g ~pc ~kind:Categories.Ck_map ~note:"property load never executed"
        (Ledger.Kept Ledger.Kc_cold);
      let did =
        mk_deopt g ~reason:(Reason.make Reason.K_cold (Reason.C_cold Reason.Cold_prop_load) ~pc)
          ~bc_pc:pc ~result_into:None
      in
      ignore (emit g Categories.C_other (Lir.Deopt did)))
  | GetElem (d, o, i, slot) -> (
    match Feedback.elem_of fb.(slot) with
    | Feedback.Eic_mono classid when elem_load_ty env ~classid <> `No_elements ->
      check_map g st ~flags:(flags_of o) o classid ~bc_pc:pc;
      let elems, len = load_elements g o in
      let ti = tagged_smi_loc g st i ~bc_pc:pc in
      let did =
        mk_deopt g ~reason:(Reason.make ~classid Reason.K_bounds Reason.C_oob ~pc)
          ~bc_pc:pc ~result_into:None
      in
      let i0 = emit g Categories.C_other (Lir.Branch (Lir.Lt, ti, Lir.Imm 0, -1)) in
      add_fixup g i0 (F_deopt did);
      let i1 = emit g Categories.C_other (Lir.Branch (Lir.Ge, ti, Lir.Reg len, -1)) in
      add_fixup g i1 (F_deopt did);
      let ri = scratch g in
      ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Sar, ri, ti, Lir.Imm 1)));
      ignore
        (emit g Categories.C_other
           (Lir.Profile (o, 0, Layout.elements_ptr_slot)));
      (match elem_load_ty env ~classid with
      | `Smi -> ignore (emit g Categories.C_other (Lir.LoadIdx (d, elems, ri, elements_off)))
      | `Double ->
        let fd = float_dest d in
        ignore (emit g Categories.C_other (Lir.FLoadIdx (fd, elems, ri, elements_off)));
        if g.reprs.(d) <> Lir.R_double then def_float d fd
      | `Tagged (ty, dep) -> (
        (match dep with Some (c, l, p) -> add_dep g c l p | None -> ());
        (if Ledger.on env.attr then
           let note = "elements Prop2 slot" in
           match dep with
           | Some _ ->
             attr_site g ~pc ~kind:Categories.Ck_map ~classid ~note Ledger.Removed
           | None ->
             attr_site g ~pc ~kind:Categories.Ck_map ~classid ~note
               (Ledger.Kept
                  (slot_keep_cause g ~classid ~line:0 ~pos:Layout.elements_ptr_slot)));
        if g.reprs.(d) = Lir.R_double then begin
          let sv = scratch g in
          ignore (emit g Categories.C_other (Lir.LoadIdx (sv, elems, ri, elements_off)));
          match ty with
          | Some (Cls c) when c = heapnum_id env ->
            ignore (emit g Categories.C_taguntag (Lir.FLoad (d, sv, 7)))
          | _ ->
            def_from_tagged g d sv ~bc_pc:pc
        end
        else
          ignore (emit g Categories.C_other (Lir.LoadIdx (d, elems, ri, elements_off))))
      | `No_elements -> assert false)
    | Eic_uninit ->
      attr_site g ~pc ~kind:Categories.Ck_map ~note:"element load never executed"
        (Ledger.Kept Ledger.Kc_cold);
      let did =
        mk_deopt g ~reason:(Reason.make Reason.K_cold (Reason.C_cold Reason.Cold_elem_load) ~pc)
          ~bc_pc:pc ~result_into:None
      in
      ignore (emit g Categories.C_other (Lir.Deopt did))
    | _ ->
      attr_site g ~pc ~kind:Categories.Ck_map ~note:"generic element load"
        (Ledger.Kept Ledger.Kc_mega);
      let to_ = tagged_loc g st o in
      let ti = tagged_loc g st i in
      ignore
        (emit g Categories.C_other
           (Lir.CallRt (Lir.Rt_generic_get_elem, [| to_; ti |], [||], Some d, None)));
      if g.reprs.(d) = Lir.R_double then begin
        def_from_tagged g d d ~bc_pc:pc
      end)
  | SetProp (o, name, v, slot) -> (
    match Feedback.prop_of fb.(slot) with
    | Feedback.Ic_mono { classid; slot = s; transition_to } ->
      check_map g st ~flags:(flags_of o) o classid ~bc_pc:pc;
      let target_class =
        match transition_to with Some c' -> c' | None -> classid
      in
      (match transition_to with
      | Some c' ->
        (* inline transitioning store: install the new class words *)
        let cls' = class_of_id env c' in
        for line = 0 to Hidden_class.lines cls' - 1 do
          ignore
            (emit g Categories.C_other
               (Lir.Store
                  (o, (line * Layout.line_bytes) - 1,
                   Lir.Imm (Hidden_class.class_word cls' ~line))))
        done
      | None -> ());
      let tv = tagged_loc g st v in
      let line, pos = Layout.line_pos_of_slot s in
      let any_valid =
        CL.is_valid env.cl ~classid:target_class ~line ~pos
        && not (store_provably_safe g ~classid:target_class ~line ~pos st.tys.(v))
      in
      emit_prop_store g ~any_valid ~classid:target_class ~line ~pos ~base:o
        ~off:((s * 8) - 1) ~value:tv ~bc_pc:pc
    | Ic_poly shapes
      when List.for_all
             (fun (sh : Feedback.shape) ->
               sh.slot = (List.hd shapes).slot && sh.transition_to = None)
             shapes ->
      (* polymorphic same-slot store: chained map checks, then one store;
         the special store profiles per-object via the line header *)
      let s = (List.hd shapes).Feedback.slot in
      attr_site g ~pc ~kind:Categories.Ck_map
        ~classid:(List.hd shapes).Feedback.classid
        (Ledger.Kept (Ledger.Kc_poly { shapes = List.length shapes }));
      let did =
        mk_deopt g
          ~reason:(Reason.make ~classid:(List.hd shapes).Feedback.classid
                     Reason.K_check_map (Reason.C_poly_ic Reason.A_store) ~pc)
          ~bc_pc:pc ~result_into:None
      in
      let mapf = flags_of o lor Categories.flag_of_check_kind Categories.Ck_map in
      (match st.tys.(o) with
      | Smi -> ignore (emit g ~flags:mapf Categories.C_check (Lir.Deopt did))
      | Any | Num ->
        check_non_smi g
          ~flags:(flags_of o lor Categories.flag_of_check_kind Categories.Ck_non_smi)
          ~cat:Categories.C_check o did
      | _ -> ());
      let mw = scratch g in
      ignore (emit g ~flags:mapf Categories.C_check (Lir.Load (mw, o, -1)));
      let n = List.length shapes in
      let oks =
        List.filteri (fun i _ -> i < n - 1) shapes
        |> List.map (fun (sh : Feedback.shape) ->
               emit g ~flags:mapf Categories.C_check
                 (Lir.Branch (Lir.Eq, mw, Lir.Imm (class_word0 g sh.classid), -1)))
      in
      let last = List.nth shapes (n - 1) in
      let idx =
        emit g ~flags:mapf Categories.C_check
          (Lir.Branch (Lir.Ne, mw, Lir.Imm (class_word0 g last.classid), -1))
      in
      add_fixup g idx (F_deopt did);
      List.iter (fun b -> land_here g b) oks;
      let tv = tagged_loc g st v in
      let line, pos = Layout.line_pos_of_slot s in
      let any_valid =
        List.exists
          (fun (sh : Feedback.shape) ->
            CL.is_valid env.cl ~classid:sh.classid ~line ~pos
            && not (store_provably_safe g ~classid:sh.classid ~line ~pos st.tys.(v)))
          shapes
      in
      emit_prop_store g ~any_valid ~classid:(-1) ~line ~pos ~base:o
        ~off:((s * 8) - 1) ~value:tv ~bc_pc:pc
    | Ic_poly _ | Ic_mega ->
      attr_site g ~pc ~kind:Categories.Ck_map ~note:"generic property store"
        (Ledger.Kept Ledger.Kc_mega);
      let to_ = tagged_loc g st o in
      let tv = tagged_loc g st v in
      let did =
        mk_deopt g
          ~reason:(Reason.make Reason.K_cc (Reason.C_cc Reason.Cc_generic_prop_store) ~pc)
          ~bc_pc:(pc + 1) ~result_into:None
      in
      ignore
        (emit g Categories.C_other
           (Lir.CallRtChecked (Lir.Rt_generic_set_prop name, [| to_; tv |], None, did)))
    | Ic_uninit ->
      attr_site g ~pc ~kind:Categories.Ck_map ~note:"property store never executed"
        (Ledger.Kept Ledger.Kc_cold);
      let did =
        mk_deopt g ~reason:(Reason.make Reason.K_cold (Reason.C_cold Reason.Cold_prop_store) ~pc)
          ~bc_pc:pc ~result_into:None
      in
      ignore (emit g Categories.C_other (Lir.Deopt did)))
  | SetElem (o, i, v, slot) -> (
    match Feedback.elem_of fb.(slot) with
    | Feedback.Eic_mono classid when elem_load_ty env ~classid <> `No_elements ->
      check_map g st ~flags:(flags_of o) o classid ~bc_pc:pc;
      let elems, len = load_elements g o in
      let ti = tagged_smi_loc g st i ~bc_pc:pc in
      (* slow path: negative, out-of-capacity, appends, kind transitions *)
      let islow0 = emit g Categories.C_other (Lir.Branch (Lir.Lt, ti, Lir.Imm 0, -1)) in
      let islow1 = emit g Categories.C_other (Lir.Branch (Lir.Ge, ti, Lir.Reg len, -1)) in
      let ri = scratch g in
      ignore (emit g Categories.C_taguntag (Lir.Alu (Lir.Sar, ri, ti, Lir.Imm 1)));
      (match elem_load_ty env ~classid with
      | `Smi ->
        let tv = tagged_smi_loc g st v ~bc_pc:pc in
        (* post-guard, the value is provably SMI: skip the special store
           whenever the profile is SMI too *)
        if env.mechanism
           && CL.is_valid env.cl ~classid ~line:0 ~pos:Layout.elements_ptr_slot
           && not
                (store_provably_safe g ~classid ~line:0
                   ~pos:Layout.elements_ptr_slot Smi)
        then begin
          let k =
            match Hashtbl.find_opt g.hoist_sites pc with
            | Some k -> k  (* regArrayObjectClassId_k loaded at loop entry *)
            | None ->
              ignore (emit g Categories.C_ccop (Lir.MovClassIDArray (3, o)));
              3
          in
          ignore (emit g Categories.C_ccop (Lir.MovClassID tv));
          let did =
            mk_deopt g
              ~reason:(Reason.make ~classid Reason.K_cc (Reason.C_cc Reason.Cc_elem_store) ~pc)
              ~bc_pc:(pc + 1) ~result_into:None
          in
          ignore
            (emit g Categories.C_other
               (Lir.StoreClassCacheArray (k, elems, ri, elements_off, Lir.Reg tv, did)))
        end
        else begin
          ignore
            (emit g Categories.C_other (Lir.StoreIdx (elems, ri, elements_off, Lir.Reg tv)));
          if not env.mechanism then
            ignore
              (emit g Categories.C_other
                 (Lir.ProfileStore (o, 0, Layout.elements_ptr_slot, Lir.Ps_reg tv)))
        end
      | `Double ->
        let fv = float_loc g st v ~bc_pc:pc in
        ignore (emit g Categories.C_other (Lir.FStoreIdx (elems, ri, elements_off, fv)));
        if not env.mechanism then
          ignore
            (emit g Categories.C_other
               (Lir.ProfileStore
                  (o, 0, Layout.elements_ptr_slot, Lir.Ps_classid (heapnum_id env))))
      | `Tagged _ ->
        let tv = tagged_loc g st v in
        if env.mechanism
           && CL.is_valid env.cl ~classid ~line:0 ~pos:Layout.elements_ptr_slot
           && not
                (store_provably_safe g ~classid ~line:0
                   ~pos:Layout.elements_ptr_slot st.tys.(v))
        then begin
          let k =
            match Hashtbl.find_opt g.hoist_sites pc with
            | Some k -> k
            | None ->
              ignore (emit g Categories.C_ccop (Lir.MovClassIDArray (3, o)));
              3
          in
          ignore (emit g Categories.C_ccop (Lir.MovClassID tv));
          let did =
            mk_deopt g
              ~reason:(Reason.make ~classid Reason.K_cc (Reason.C_cc Reason.Cc_elem_store) ~pc)
              ~bc_pc:(pc + 1) ~result_into:None
          in
          ignore
            (emit g Categories.C_other
               (Lir.StoreClassCacheArray (k, elems, ri, elements_off, Lir.Reg tv, did)))
        end
        else begin
          ignore
            (emit g Categories.C_other (Lir.StoreIdx (elems, ri, elements_off, Lir.Reg tv)));
          if not env.mechanism then
            ignore
              (emit g Categories.C_other
                 (Lir.ProfileStore (o, 0, Layout.elements_ptr_slot, Lir.Ps_reg tv)))
        end
      | `No_elements -> assert false);
      let iend = emit g Categories.C_other (Lir.Jmp (-1)) in
      land_here g islow0;
      land_here g islow1;
      let to_ = tagged_loc g st o in
      let tv = tagged_loc g st v in
      let did =
        mk_deopt g
          ~reason:(Reason.make ~classid Reason.K_cc (Reason.C_cc Reason.Cc_elem_store_slow) ~pc)
          ~bc_pc:(pc + 1) ~result_into:None
      in
      ignore
        (emit g Categories.C_other
           (Lir.CallRtChecked (Lir.Rt_elem_store_slow, [| to_; ti; tv |], None, did)));
      land_here g iend
    | Eic_uninit ->
      attr_site g ~pc ~kind:Categories.Ck_map ~note:"element store never executed"
        (Ledger.Kept Ledger.Kc_cold);
      let did =
        mk_deopt g ~reason:(Reason.make Reason.K_cold (Reason.C_cold Reason.Cold_elem_store) ~pc)
          ~bc_pc:pc ~result_into:None
      in
      ignore (emit g Categories.C_other (Lir.Deopt did))
    | _ ->
      attr_site g ~pc ~kind:Categories.Ck_map ~note:"generic element store"
        (Ledger.Kept Ledger.Kc_mega);
      let to_ = tagged_loc g st o in
      let ti = tagged_loc g st i in
      let tv = tagged_loc g st v in
      let did =
        mk_deopt g
          ~reason:(Reason.make Reason.K_cc (Reason.C_cc Reason.Cc_generic_elem_store) ~pc)
          ~bc_pc:(pc + 1) ~result_into:None
      in
      ignore
        (emit g Categories.C_other
           (Lir.CallRtChecked (Lir.Rt_generic_set_elem, [| to_; ti; tv |], None, did))))
  | GetGlobal (d, i) ->
    (* global cell load (V8 property cell): mov base; load *)
    let s = scratch g in
    ignore (emit g Categories.C_other (Lir.MovImm (s, env.globals_base + (8 * i))));
    if g.reprs.(d) = Lir.R_double then begin
      let sv = scratch g in
      ignore (emit g Categories.C_other (Lir.Load (sv, s, 0)));
      def_from_tagged g d sv ~bc_pc:pc
    end
    else ignore (emit g Categories.C_other (Lir.Load (d, s, 0)))
  | SetGlobal (i, r) ->
    let tv = tagged_loc g st r in
    let s = scratch g in
    ignore (emit g Categories.C_other (Lir.MovImm (s, env.globals_base + (8 * i))));
    ignore (emit g Categories.C_other (Lir.Store (s, 0, Lir.Reg tv)))
  | NewObject d ->
    let root = Hidden_class.Registry.object_root_class env.heap.Heap.reg in
    ignore
      (emit g Categories.C_other
         (Lir.CallRt (Lir.Rt_alloc_object (root.Hidden_class.id, 8), [||], [||], Some d, None)))
  | AllocCtor (d, fid) -> (
    let callee = env.prog.Bytecode.funcs.(fid) in
    match callee.Bytecode.base_class with
    | Some base ->
      ignore
        (emit g Categories.C_other
           (Lir.CallRt
              (Lir.Rt_alloc_object (base.Hidden_class.id, callee.Bytecode.reserve_props),
               [||], [||], Some d, None)))
    | None ->
      let did =
        mk_deopt g ~reason:(Reason.make Reason.K_cold (Reason.C_cold Reason.Cold_ctor) ~pc)
          ~bc_pc:pc ~result_into:None
      in
      ignore (emit g Categories.C_other (Lir.Deopt did)))
  | NewArray (d, cap) ->
    ignore
      (emit g Categories.C_other
         (Lir.CallRt
            (Lir.Rt_alloc_array (Hidden_class.E_smi, max cap 4), [||], [||], Some d, None)))
  | Call (d, fid, args) ->
    let z = scratch g in
    ignore (emit g Categories.C_other (Lir.MovImm (z, null_imm g)));
    let argr = Array.append [| z |] (Array.map (fun r -> tagged_loc g st r) args) in
    let did =
      mk_deopt g ~reason:(Reason.make Reason.K_osr (Reason.C_osr Reason.Osr_call) ~pc)
        ~bc_pc:(pc + 1) ~result_into:(Some d)
    in
    let dd = if g.reprs.(d) = Lir.R_double then scratch g else d in
    ignore (emit g Categories.C_other (Lir.CallFn (fid, argr, dd, did)));
    if g.reprs.(d) = Lir.R_double then begin
      def_from_tagged g d dd ~bc_pc:pc
    end
  | CallB (d, b, args) -> (
    match b with
    | Builtins.B_sqrt ->
      let fa = float_loc g st args.(0) ~bc_pc:pc in
      let fd = float_dest d in
      ignore (emit g Categories.C_other (Lir.FSqrt (fd, fa)));
      if g.reprs.(d) <> Lir.R_double then def_float d fd
    | Builtins.B_abs when st.tys.(args.(0)) = Smi && g.reprs.(d) = Lir.R_tagged ->
      let ta = tagged_smi_loc g st args.(0) ~bc_pc:pc in
      ignore (emit g Categories.C_other (Lir.Mov (d, ta)));
      let idx = emit g Categories.C_other (Lir.Branch (Lir.Ge, ta, Lir.Imm 0, -1)) in
      let z = scratch g in
      ignore (emit g Categories.C_other (Lir.MovImm (z, 0)));
      let did =
        mk_deopt g ~reason:(Reason.make Reason.K_math (Reason.C_overflow Reason.Ov_abs) ~pc)
          ~bc_pc:pc ~result_into:None
      in
      let i2 = emit g Categories.C_math (Lir.AluOv (Lir.Sub, d, z, Lir.Reg ta, -1)) in
      add_fixup g i2 (F_deopt did);
      land_here g idx
    | Builtins.B_abs when g.reprs.(d) = Lir.R_double ->
      let fa = float_loc g st args.(0) ~bc_pc:pc in
      ignore (emit g Categories.C_other (Lir.FAbs (d, fa)))
    | Builtins.B_push ->
      (* push stores into the array: the slow path may transition its
         elements kind and retire profiles this code depends on *)
      let argr = Array.map (fun r -> tagged_loc g st r) args in
      let did =
        mk_deopt g ~reason:(Reason.make Reason.K_cc (Reason.C_cc Reason.Cc_push) ~pc)
          ~bc_pc:(pc + 1) ~result_into:(Some d)
      in
      ignore
        (emit g Categories.C_other
           (Lir.CallRtChecked (Lir.Rt_builtin b, argr, Some d, did)))
    | _ ->
      let argr = Array.map (fun r -> tagged_loc g st r) args in
      let dd = if g.reprs.(d) = Lir.R_double then scratch g else d in
      ignore
        (emit g Categories.C_other
           (Lir.CallRt (Lir.Rt_builtin b, argr, [||], Some dd, None)));
      if g.reprs.(d) = Lir.R_double then begin
        def_from_tagged g d dd ~bc_pc:pc
      end)
  | New (d, fid, args) -> (
    let callee = env.prog.Bytecode.funcs.(fid) in
    match callee.Bytecode.base_class with
    | None ->
      let did =
        mk_deopt g ~reason:(Reason.make Reason.K_cold (Reason.C_cold Reason.Cold_ctor) ~pc)
          ~bc_pc:pc ~result_into:None
      in
      ignore (emit g Categories.C_other (Lir.Deopt did))
    | Some base ->
      let robj = scratch g in
      ignore
        (emit g Categories.C_other
           (Lir.CallRt
              (Lir.Rt_alloc_object (base.Hidden_class.id, callee.Bytecode.reserve_props),
               [||], [||], Some robj, None)));
      let argr =
        Array.append [| robj |] (Array.map (fun r -> tagged_loc g st r) args)
      in
      let did =
        mk_deopt g ~reason:(Reason.make Reason.K_osr (Reason.C_osr Reason.Osr_ctor) ~pc)
          ~bc_pc:(pc + 1) ~result_into:(Some d)
      in
      ignore (emit g Categories.C_other (Lir.CallFn (fid, argr, d, did))))
  | Jump target ->
    let idx = emit g Categories.C_other (Lir.Jmp (-1)) in
    add_fixup g idx (F_bc target)
  | JumpIfFalse (r, target) ->
    truth_branch g st r ~jump_if:false ~bc_pc:pc ~target
  | JumpIfTrue (r, target) -> truth_branch g st r ~jump_if:true ~bc_pc:pc ~target
  | Return r ->
    let tr = tagged_loc g st r in
    ignore (emit g Categories.C_other (Lir.Ret tr))

(* --- entry point --- *)

(** Optimize [env.fn]; raises {!Bailout} when the function cannot be
    usefully compiled. *)
let compile (env : env) : Lir.func =
  let fn = env.fn in
  let code = fn.Bytecode.code in
  let flow = fixpoint env in
  let reprs, store_tys = assign_reprs env flow in
  let n = Array.length code in
  let g =
    {
      genv = env;
      reprs;
      n_bc = fn.Bytecode.n_regs;
      out = Array.make 256 (Lir.inst Categories.C_other (Lir.Jmp 0));
      n = 0;
      bc2lir = Array.make (n + 1) 0;
      fixups = [];
      deopt_infos = [];
      n_deopts = 0;
      scratch = fn.Bytecode.n_regs;
      max_reg = fn.Bytecode.n_regs;
      scratch_f = fn.Bytecode.n_regs;
      max_freg = fn.Bytecode.n_regs;
      deps = [];
      hoist_headers = Hashtbl.create 4;
      hoist_sites = Hashtbl.create 8;
    }
  in
  compute_hoists env store_tys g.hoist_headers g.hoist_sites;
  let skip_next = ref false in
  iter_states env flow ~after:(fun _ _ -> ()) ~before:(fun pc st ->
      (* loop-entry hoists land *before* the header label so the backedge
         does not re-execute them *)
      (match Hashtbl.find_opt g.hoist_headers pc with
      | Some hoists ->
        List.iter
          (fun (k, recv) ->
            ignore (emit g Categories.C_ccop (Lir.MovClassIDArray (k, recv))))
          hoists
      | None -> ());
      g.bc2lir.(pc) <- g.n;
      if !skip_next then skip_next := false
      else begin
        reset_scratch g;
        gen_op g pc code.(pc) st ~skip_next
      end);
  g.bc2lir.(n) <- g.n;
  (* deopt landing pads *)
  let deopt_base = g.n in
  for id = 0 to g.n_deopts - 1 do
    ignore (emit g Categories.C_other (Lir.Deopt id))
  done;
  (* resolve fixups *)
  List.iter
    (fun (idx, f) ->
      let tgt =
        match f with
        | F_bc pc -> g.bc2lir.(pc)
        | F_deopt id -> deopt_base + id
      in
      g.out.(idx) <- { (g.out.(idx)) with op = retarget g.out.(idx).op tgt })
    g.fixups;
  let code = Array.sub g.out 0 g.n in
  (* the engine owns the code-address space (per-engine determinism) *)
  let code_addr = env.code_addr in
  {
    Lir.fn_id = fn.Bytecode.id;
    opt_id = env.opt_id;
    name = fn.Bytecode.name;
    code;
    deopts = Array.of_list (List.rev g.deopt_infos);
    reprs = Array.sub reprs 0 fn.Bytecode.n_regs;
    n_regs = g.max_reg;
    n_fregs = g.max_freg;
    code_addr;
    spec_deps = g.deps;
    invalidated = false;
    deopt_hits = 0;
  }
