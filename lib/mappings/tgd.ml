type atom = { rel : string; args : Term.t list }

type t =
  | Tuple_level of { lhs : atom list; rhs : atom }
  | Aggregation of {
      source : atom;
      group_by : Term.t list;
      aggr : Stats.Aggregate.t;
      measure : string;
      target : string;
    }
  | Table_fn of {
      fn : string;
      params : float list;
      source : string;
      target : string;
    }
  | Outer_combine of {
      left : atom;
      right : atom;
      op : Ops.Binop.t;
      default : float;
      target : string;
    }

let atom rel args = { rel; args }

let target_relation = function
  | Tuple_level { rhs; _ } -> rhs.rel
  | Aggregation { target; _ } -> target
  | Table_fn { target; _ } -> target
  | Outer_combine { target; _ } -> target

let dedup names =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.add seen n ();
        true
      end)
    names

let source_relations = function
  | Tuple_level { lhs; _ } -> dedup (List.map (fun a -> a.rel) lhs)
  | Aggregation { source; _ } -> [ source.rel ]
  | Table_fn { source; _ } -> [ source ]
  | Outer_combine { left; right; _ } -> dedup [ left.rel; right.rel ]

let atom_vars a = dedup (List.concat_map Term.vars a.args)

let is_safe = function
  | Tuple_level { lhs; rhs } ->
      let bound = List.concat_map atom_vars lhs in
      List.for_all (fun v -> List.mem v bound) (atom_vars rhs)
  | Aggregation { source; group_by; measure; _ } ->
      let bound = atom_vars source in
      List.mem measure bound
      && List.for_all
           (fun t -> List.for_all (fun v -> List.mem v bound) (Term.vars t))
           group_by
  | Table_fn _ -> true
  | Outer_combine { left; right; _ } ->
      (* both atoms must use plain variables *)
      List.for_all Term.is_var left.args && List.for_all Term.is_var right.args

let add_list buf sep add = function
  | [] -> ()
  | x :: rest ->
      add buf x;
      List.iter
        (fun x ->
          Buffer.add_string buf sep;
          add buf x)
        rest

let add_atom buf a =
  Buffer.add_string buf a.rel;
  Buffer.add_char buf '(';
  add_list buf ", " Term.to_buffer a.args;
  Buffer.add_char buf ')'

let atom_to_string a =
  let buf = Buffer.create 32 in
  add_atom buf a;
  Buffer.contents buf

(* [dims], then ", " when there are any: the head's dimension terms
   before its measure. *)
let add_dims buf dims =
  add_list buf ", " Term.to_buffer dims;
  if dims <> [] then Buffer.add_string buf ", "

let add_tgd buf = function
  | Tuple_level { lhs; rhs } ->
      add_list buf " ∧ " add_atom lhs;
      Buffer.add_string buf (if lhs = [] then "→ " else " → ");
      add_atom buf rhs
  | Aggregation { source; group_by; aggr; measure; target } ->
      add_atom buf source;
      Buffer.add_string buf " → ";
      Buffer.add_string buf target;
      Buffer.add_char buf '(';
      add_dims buf group_by;
      Buffer.add_string buf (Stats.Aggregate.to_string aggr);
      Buffer.add_char buf '(';
      Buffer.add_string buf measure;
      Buffer.add_string buf "))"
  | Outer_combine { left; right; op; default; target } ->
      (* the target's dimensions are the left atom's dimension terms *)
      let dims =
        match List.rev left.args with
        | _measure :: rev_dims -> List.rev rev_dims
        | [] -> []
      in
      let coalesced (atom : atom) =
        Buffer.add_string buf "coalesce(";
        Term.to_buffer buf
          (match List.rev atom.args with m :: _ -> m | [] -> Term.Var "m");
        Printf.bprintf buf ", %g)" default
      in
      add_atom buf left;
      Buffer.add_string buf " ∨ ";
      add_atom buf right;
      Buffer.add_string buf " → ";
      Buffer.add_string buf target;
      Buffer.add_char buf '(';
      add_dims buf dims;
      coalesced left;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Ops.Binop.to_string op);
      Buffer.add_char buf ' ';
      coalesced right;
      Buffer.add_char buf ')'
  | Table_fn { fn; params; source; target } ->
      Buffer.add_string buf source;
      Buffer.add_string buf " → ";
      Buffer.add_string buf target;
      Buffer.add_char buf '(';
      Buffer.add_string buf fn;
      Buffer.add_char buf '(';
      Buffer.add_string buf source;
      if params <> [] then begin
        Buffer.add_string buf "; ";
        add_list buf ", " (fun buf p -> Printf.bprintf buf "%g" p) params
      end;
      Buffer.add_string buf "))"

let to_string tgd =
  let buf = Buffer.create 64 in
  add_tgd buf tgd;
  Buffer.contents buf

let equal_atom (a : atom) (b : atom) =
  a.rel = b.rel && List.equal Term.equal a.args b.args

let equal a b =
  match (a, b) with
  | Tuple_level t1, Tuple_level t2 ->
      List.equal equal_atom t1.lhs t2.lhs && equal_atom t1.rhs t2.rhs
  | Aggregation a1, Aggregation a2 ->
      equal_atom a1.source a2.source
      && List.equal Term.equal a1.group_by a2.group_by
      && a1.aggr = a2.aggr && a1.measure = a2.measure && a1.target = a2.target
  | Table_fn f1, Table_fn f2 ->
      f1.fn = f2.fn && f1.params = f2.params && f1.source = f2.source
      && f1.target = f2.target
  | Outer_combine o1, Outer_combine o2 ->
      equal_atom o1.left o2.left && equal_atom o1.right o2.right
      && o1.op = o2.op && o1.default = o2.default && o1.target = o2.target
  | (Tuple_level _ | Aggregation _ | Table_fn _ | Outer_combine _), _ -> false
