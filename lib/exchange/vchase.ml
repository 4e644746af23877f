(* Vectorized tgd application over column views — the chase's hot
   path.  Each [try_*] below replays the row engine's semantics
   exactly: rows are processed in key order ([Instance.facts] order),
   the same candidates are counted into [matches_examined], undefined
   terms skip or raise under the same rules, and group bags accumulate
   in the same order — so a successful vectorized run produces the
   same solution, the same counters, and bit-identical floats as the
   row-at-a-time matcher, only without per-row [Tuple]/[Binding]
   allocation in the loops.

   When [apply] accepts a tgd's shape it commits (no runtime fallback
   — wide keys go through a composite-key table, not back to rows), so
   Σst-installed relations a vectorizable tgd reads stay purely
   columnar. *)

open Matrix
module Tgd = Mappings.Tgd
module Term = Mappings.Term

exception Error of string
(* Converted to [Chase_error]'s [Error msg] result by the chase's
   [wrap_chase]; messages match the row path's. *)

type ctx = {
  read : Instance.t;  (* views come from here *)
  count : int -> unit;  (* matches_examined accumulator *)
  emit : Value.t array -> unit;  (* sink of the tgd's target facts *)
}

(* [(var, position)] for an atom whose args are pairwise-distinct
   variables — the shape every kernel requires; anything else
   (constants, repeated vars = filters, complex terms) stays on the
   row matcher. *)
let var_positions (atom : Tgd.atom) =
  let rec go i seen acc = function
    | [] -> Some (List.rev acc)
    | Term.Var v :: rest ->
        if List.mem v seen then None
        else go (i + 1) (v :: seen) ((v, i) :: acc) rest
    | _ :: _ -> None
  in
  go 0 [] [] atom.Tgd.args

(* The atom's var layout when it matches its relation's arity; an
   arity mismatch means the row matcher's per-fact width check (which
   silently matches nothing) must run instead. *)
let atom_shape instance (atom : Tgd.atom) =
  match var_positions atom with
  | None -> None
  | Some vpos -> (
      match Instance.schema instance atom.Tgd.rel with
      | Some s when Schema.arity s + 1 = List.length atom.Tgd.args -> Some vpos
      | _ -> None)

(* A relation as the kernels read it: its view, whose rows they walk
   in key order — position [i] is row [order.(i)] — as the row engine
   walks sorted facts. *)
type rel = { view : Cube.view; order : int array; ndims : int }

let relation ctx name =
  let view = Instance.view ctx.read name in
  { view; order = Cube.key_order view; ndims = Array.length view.Cube.dicts }

let size rel = rel.view.Cube.size

(* Dimension [p]'s codes by position, unpacked for the kernels. *)
let codes rel p = Array.map (Cube.code rel.view p) rel.order

(* The value at argument position [p] by position, exactly as the row
   engine reads it: the measure, or the row's own key value. *)
let reader rel p =
  let v = rel.view and order = rel.order in
  if p = rel.ndims then fun i -> v.Cube.measures.(order.(i))
  else fun i -> Cube.key_value v p order.(i)

(* Dimension [p] for a term evaluated once per code: a code per
   position, and the value each code stands for.  A row whose own key
   is not its code's first value (an exception: [Int 1] beside
   [Float 1.]) gets a code of its own past the dictionary's, so the
   term sees every row's own value, as the row engine does. *)
let value_codes rel p =
  let v = rel.view in
  let d = v.Cube.dicts.(p) and exceptions = v.Cube.exceptions.(p) in
  let base = Dict.size d in
  let values =
    Array.init (base + Array.length exceptions) (fun c ->
        if c < base then Dict.decode d c else snd exceptions.(c - base))
  in
  let code =
    if exceptions = [||] then Cube.code v p
    else begin
      let own = Array.make v.Cube.size (-1) in
      Array.iteri (fun k (r, _) -> own.(r) <- base + k) exceptions;
      fun r -> if own.(r) >= 0 then own.(r) else Cube.code v p r
    end
  in
  (Array.map code rel.order, values)

(* ----- aggregation ----- *)

(* A group-by term is kernel-able when it depends on at most one
   variable and that variable sits on a dictionary-encoded dimension:
   the term then evaluates once per distinct code instead of once per
   row.  The measure may sit on any position (measure column or an
   encoded dimension). *)
let agg_shape instance (source : Tgd.atom) group_by measure =
  match atom_shape instance source with
  | None -> None
  | Some vpos ->
      let ndims = List.length source.Tgd.args - 1 in
      let terms_ok =
        List.for_all
          (fun t ->
            match Term.vars t with
            | [] -> true
            | [ v ] -> (
                match List.assoc_opt v vpos with
                | Some p -> p < ndims
                | None -> false)
            | _ :: _ :: _ -> false)
          group_by
      in
      if not terms_ok then None
      else
        Option.map (fun mpos -> (vpos, mpos)) (List.assoc_opt measure vpos)

(* One prepared group-by column: either the same value on every row,
   or a per-input-code translation into a local key dictionary. *)
type gcol =
  | Gconst of Value.t option * Term.t
  | Gcol of {
      term : Term.t;
      src_codes : int array;  (* the dimension's codes ([value_codes]) *)
      enc : int array;  (* input code -> local key code, -1 undefined *)
      vals : Value.t option array;  (* input code -> term value *)
      radix : int;
    }

let try_aggregation ctx (source : Tgd.atom) group_by aggr measure =
  match agg_shape ctx.read source group_by measure with
  | None -> false
  | Some (vpos, mpos) ->
      let rel = relation ctx source.Tgd.rel in
      let nrows = size rel in
      let prep term =
        match Term.vars term with
        | [] -> Gconst (Binding.term_value Binding.empty term, term)
        | [ v ] ->
            let src_codes, values = value_codes rel (List.assoc v vpos) in
            let vals =
              Array.map
                (fun x ->
                  match term with
                  | Term.Var _ -> Some x
                  | _ -> Binding.term_value (Binding.bind Binding.empty v x) term)
                values
            in
            let local = Dict.create () in
            let enc =
              Array.map
                (function Some v -> Dict.encode local v | None -> -1)
                vals
            in
            Gcol
              {
                term;
                src_codes;
                enc;
                vals;
                radix = max 1 (Dict.size local);
              }
        | _ -> assert false
      in
      let preps = List.map prep group_by in
      (* Every source fact is an examined candidate, matching or not. *)
      ctx.count nrows;
      (* Row scan in sorted order: raise exactly where the row matcher
         would — per row, group terms in declaration order first, then
         the measure — and gather the measure column. *)
      let undefined t =
        raise
          (Error
             (Printf.sprintf "group-by term %s undefined on a source tuple"
                (Term.to_string t)))
      in
      let measure_at = reader rel mpos in
      let mf = Array.make (max 1 nrows) 0. in
      for r = 0 to nrows - 1 do
        List.iter
          (function
            | Gconst (None, t) -> undefined t
            | Gconst (Some _, _) -> ()
            | Gcol p -> if p.enc.(p.src_codes.(r)) < 0 then undefined p.term)
          preps;
        if not (Kernels.read_float mf r (measure_at r)) then
          raise (Error "aggregation measure is not numeric")
      done;
      let cols, radices =
        List.filter_map
          (function
            | Gconst _ -> None
            | Gcol p ->
                Some (Array.map (fun c -> p.enc.(c)) p.src_codes, p.radix))
          preps
        |> List.split
      in
      let keys =
        Kernels.dense_keys ~nrows (Array.of_list cols) (Array.of_list radices)
      in
      let g = Kernels.group keys in
      let mf = if nrows = 0 then [||] else mf in
      let offsets, data = Kernels.segment g mf in
      for gid = 0 to g.Kernels.n_groups - 1 do
        let off = offsets.(gid) in
        let len = offsets.(gid + 1) - off in
        let result = Stats.Aggregate.apply_slice aggr data ~off ~len in
        if not (Float.is_nan result) then begin
          let rep = g.Kernels.rep_rows.(gid) in
          let fact = Array.make (List.length preps + 1) (Value.of_float result) in
          List.iteri
            (fun i prep ->
              fact.(i) <-
                (match prep with
                | Gconst (Some v, _) -> v
                | Gconst (None, _) -> assert false (* raised above *)
                | Gcol p -> Option.get p.vals.(p.src_codes.(rep))))
            preps;
          ctx.emit fact
        end
      done;
      true

(* A compiled rhs term: how to produce its value for one matched row.
   [Rgeneral] rebuilds a binding — only complex multi-var terms pay
   that cost. *)
type rterm =
  | Rconst of Value.t option
  | Rread of (int -> Value.t)  (* plain var: direct column read *)
  | Rcode of { codes : int array; vals : Value.t option array }
      (* single dimension var under a complex term: per-code value *)
  | Rgeneral of Term.t

let compile_rhs_term ~reader_of ~dim_of term =
  match Term.vars term with
  | [] -> Rconst (Binding.term_value Binding.empty term)
  | [ v ] -> (
      match term with
      | Term.Var _ -> (
          match reader_of v with
          | Some read -> Rread read
          | None -> Rconst None (* unbound var: undefined on every row *))
      | _ -> (
          match dim_of v with
          | Some (codes, values) ->
              let vals =
                Array.map
                  (fun x -> Binding.term_value (Binding.bind Binding.empty v x) term)
                  values
              in
              Rcode { codes; vals }
          | None -> if Option.is_none (reader_of v) then Rconst None else Rgeneral term))
  | _ :: _ :: _ -> Rgeneral term

(* ----- single-atom selection / projection ----- *)

let try_single ctx (atom : Tgd.atom) (rhs : Tgd.atom) =
  match atom_shape ctx.read atom with
  | None -> false
  | Some vpos ->
      let rel = relation ctx atom.Tgd.rel in
      let nrows = size rel in
      let reader_of v = Option.map (reader rel) (List.assoc_opt v vpos) in
      let dim_of v =
        match List.assoc_opt v vpos with
        | Some p when p < rel.ndims -> Some (value_codes rel p)
        | _ -> None
      in
      let rterms =
        List.map (compile_rhs_term ~reader_of ~dim_of) rhs.Tgd.args
      in
      let needs_binding =
        List.exists (function Rgeneral _ -> true | _ -> false) rterms
      in
      let readers = List.map (fun (v, p) -> (v, reader rel p)) vpos in
      let width = List.length rterms in
      ctx.count nrows;
      for r = 0 to nrows - 1 do
        let binding =
          if needs_binding then
            List.fold_left
              (fun acc (v, read) -> Binding.bind acc v (read r))
              Binding.empty readers
          else Binding.empty
        in
        let fact = Array.make width Value.Null in
        let rec fill i = function
          | [] -> ctx.emit fact
          | rt :: rest -> (
              let value =
                match rt with
                | Rconst v -> v
                | Rread read -> Some (read r)
                | Rcode { codes; vals } -> vals.(codes.(r))
                | Rgeneral term -> Binding.term_value binding term
              in
              match value with
              | Some v ->
                  fact.(i) <- v;
                  fill (i + 1) rest
              | None -> () (* undefined term: skip the row, no error *))
        in
        fill 0 rterms
      done;
      true

(* ----- two-atom equi-join ----- *)

(* Shape check for the view hash join: both atoms all-distinct-vars,
   at least one shared variable, every shared variable on encoded
   dimensions (not the measure). *)
let join_shape instance (a1 : Tgd.atom) (a2 : Tgd.atom) =
  match (atom_shape instance a1, atom_shape instance a2) with
  | Some vp1, Some vp2 ->
      let nd1 = List.length a1.Tgd.args - 1 in
      let nd2 = List.length a2.Tgd.args - 1 in
      let joins =
        List.filter_map
          (fun (v, p2) ->
            Option.map (fun p1 -> (p1, p2)) (List.assoc_opt v vp1))
          vp2
      in
      if
        joins <> []
        && List.for_all (fun (p1, p2) -> p1 < nd1 && p2 < nd2) joins
      then Some (vp1, vp2, joins)
      else None
  | _ -> None

let try_join ctx (a1 : Tgd.atom) (a2 : Tgd.atom) (rhs : Tgd.atom) =
  match join_shape ctx.read a1 a2 with
  | None -> false
  | Some (vp1, vp2, joins) ->
      let r1 = relation ctx a1.Tgd.rel and r2 = relation ctx a2.Tgd.rel in
      (* Key columns in a1's code space: a2's codes are translated once
         (misses -> -1, matching nothing), mirroring an index lookup
         that finds no bucket. *)
      let probe_cols, build_cols, radices =
        List.fold_right
          (fun (p1, p2) (ps, bs, rs) ->
            let d1 = r1.view.Cube.dicts.(p1) and d2 = r2.view.Cube.dicts.(p2) in
            let c2 = codes r2 p2 in
            let c2 =
              match Dict.xlate d2 d1 with
              | None -> c2
              | Some x -> Array.map (fun c -> x.(c)) c2
            in
            (codes r1 p1 :: ps, c2 :: bs, Dict.size d1 :: rs))
          joins ([], [], [])
      in
      let build_keys, probe_keys =
        Kernels.joined_keys
          ~build_cols:(Array.of_list build_cols)
          ~probe_cols:(Array.of_list probe_cols)
          ~nbuild:(size r2) ~nprobe:(size r1)
          (Array.of_list radices)
      in
      (* Like the row plan: every a1 fact is an examined candidate,
         then every index-bucket entry per probe. *)
      ctx.count (size r1);
      let read1 = reader r1 and read2 = reader r2 in
      (* Shared vars resolve to the probe (a1) side, exactly where the
         row matcher binds them. *)
      let vp2_fresh =
        List.filter (fun (v, _) -> not (List.mem_assoc v vp1)) vp2
      in
      let reader_of v =
        match List.assoc_opt v vp1 with
        | Some p ->
            let read = read1 p in
            Some (fun pr _ -> read pr)
        | None ->
            Option.map
              (fun p ->
                let read = read2 p in
                fun _ br -> read br)
              (List.assoc_opt v vp2)
      in
      let jterms =
        List.map
          (fun term ->
            match term with
            | Term.Var v -> (
                match reader_of v with
                | Some read -> `Read read
                | None -> `Const None)
            | _ -> (
                match Term.vars term with
                | [] -> `Const (Binding.term_value Binding.empty term)
                | _ :: _ -> `General term))
          rhs.Tgd.args
      in
      let needs_binding =
        List.exists (function `General _ -> true | _ -> false) jterms
      in
      (* Binding layout for complex terms: every a1 var, then a2's
         fresh vars — shared vars keep their a1 (probe-side) values,
         where the row matcher bound them. *)
      let binding_readers =
        List.map
          (fun (v, p) ->
            let read = read1 p in
            (v, fun pr _ -> read pr))
          vp1
        @ List.map
            (fun (v, p) ->
              let read = read2 p in
              (v, fun _ br -> read br))
            vp2_fresh
      in
      let width = List.length jterms in
      let matched = ref 0 in
      Kernels.hash_join ~build_keys ~probe_keys
        ~on_probe:(fun _ bucket -> matched := !matched + bucket)
        (fun pr br ->
          let binding =
            if needs_binding then
              List.fold_left
                (fun acc (v, read) -> Binding.bind acc v (read pr br))
                Binding.empty binding_readers
            else Binding.empty
          in
          let fact = Array.make width Value.Null in
          let rec fill i = function
            | [] -> ctx.emit fact
            | jt :: rest -> (
                let value =
                  match jt with
                  | `Const v -> v
                  | `Read read -> Some (read pr br)
                  | `General term -> Binding.term_value binding term
                in
                match value with
                | Some v ->
                    fact.(i) <- v;
                    fill (i + 1) rest
                | None -> () (* undefined term: skip the pair *))
          in
          fill 0 jterms);
      ctx.count !matched;
      true

let apply ctx tgd =
  match tgd with
  | Tgd.Aggregation { source; group_by; aggr; measure; _ } ->
      try_aggregation ctx source group_by aggr measure
  | Tgd.Tuple_level { lhs = [ a ]; rhs } -> try_single ctx a rhs
  | Tgd.Tuple_level { lhs = [ a1; a2 ]; rhs } -> try_join ctx a1 a2 rhs
  | Tgd.Tuple_level _ | Tgd.Table_fn _ | Tgd.Outer_combine _ -> false
