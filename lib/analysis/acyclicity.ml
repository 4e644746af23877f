(* Weak acyclicity of the dependency graph (Fagin et al.), adapted to
   this engine's extended tgds.

   Classic weak acyclicity tracks existential variables: a cycle
   through a "special" edge means the chase can keep inventing labelled
   nulls forever.  Our generated tgds are full (no existentials), but
   head terms that *compute* values — [Shifted], [Dim_fn],
   [Scalar_fn], [Binapp], [Neg] — play the same role: a shift can
   mint new periods without bound if it feeds itself.  So:

   - an {b ordinary} edge copies a value: body position to a head
     position holding the same plain variable;
   - a {b special} edge creates a value: body position of a variable
     to a head position whose term uses that variable inside a
     computation.

   The mapping is weakly acyclic iff no cycle goes through a special
   edge.  When it is, we return a certificate: a rank per position
   such that every edge satisfies [rank dst >= rank src + w] (w = 1
   for special edges).  Such a ranking is exactly a proof that chase
   value-creation depth is bounded by the max rank, and [verify]
   re-checks it edge by edge. *)

open Matrix
module Mapping = Mappings.Mapping
module Tgd = Mappings.Tgd
module Term = Mappings.Term

type position = { rel : string; idx : int }
type edge_kind = Ordinary | Special

type edge = {
  src : position;
  dst : position;
  kind : edge_kind;
  via : string;  (** target relation of the tgd inducing this edge *)
}

type certificate = {
  positions : position list;
  edges : edge list;
  ranks : (position * int) list;
  max_rank : int;
}

type violation = { cycle : edge list }

let schema_for (m : Mapping.t) rel =
  List.find_opt (fun s -> s.Schema.name = rel) (m.source @ m.target)

(* An atom has [Schema.arity] dimension positions plus one trailing
   measure position, so a relation contributes [arity + 1] graph
   nodes. *)
let position_to_string (m : Mapping.t) p =
  match schema_for m p.rel with
  | Some s when p.idx >= 0 && p.idx <= Schema.arity s ->
      let label =
        if p.idx = Schema.arity s then s.Schema.measure_name
        else s.Schema.dims.(p.idx).Schema.dim_name
      in
      Printf.sprintf "%s.%s" p.rel label
  | _ -> Printf.sprintf "%s.%d" p.rel p.idx

let edge_to_string (m : Mapping.t) e =
  Printf.sprintf "%s -%s-> %s [%s]"
    (position_to_string m e.src)
    (match e.kind with Ordinary -> "" | Special -> "*")
    (position_to_string m e.dst)
    e.via

(* All (position index, variable) occurrences in an atom's arguments. *)
let atom_var_positions (a : Tgd.atom) =
  List.concat
    (List.mapi
       (fun i t -> List.map (fun v -> (i, v)) (Term.vars t))
       a.Tgd.args)

(* Edges from a variable occurrence [(rel, i, v)] into the head term
   [h] at head position [j]: ordinary if [h] is exactly [Var v],
   special if [v] occurs inside a larger (computing) term. *)
let edges_into via src j (h : Term.t) v =
  match h with
  | Term.Var x when x = v -> [ (fun dst_rel -> { src; dst = { rel = dst_rel; idx = j }; kind = Ordinary; via }) ]
  | _ when List.mem v (Term.vars h) ->
      [ (fun dst_rel -> { src; dst = { rel = dst_rel; idx = j }; kind = Special; via }) ]
  | _ -> []

let tgd_edges (m : Mapping.t) (tgd : Tgd.t) =
  let via = Tgd.target_relation tgd in
  let arity rel =
    match schema_for m rel with Some s -> Schema.arity s | None -> 0
  in
  match tgd with
  | Tgd.Tuple_level { lhs; rhs } ->
      List.concat_map
        (fun (a : Tgd.atom) ->
          List.concat_map
            (fun (i, v) ->
              let src = { rel = a.Tgd.rel; idx = i } in
              List.concat
                (List.mapi
                   (fun j h ->
                     List.map (fun f -> f rhs.Tgd.rel) (edges_into via src j h v))
                   rhs.Tgd.args))
            (atom_var_positions a))
        lhs
  | Tgd.Aggregation { source; group_by; measure; target; _ } ->
      let key_edges =
        List.concat_map
          (fun (i, v) ->
            let src = { rel = source.Tgd.rel; idx = i } in
            List.concat
              (List.mapi
                 (fun j g ->
                   List.map (fun f -> f target) (edges_into via src j g v))
                 group_by))
          (atom_var_positions source)
      in
      (* The aggregate computes a fresh measure from every tuple of the
         group: special edge from each source position binding the
         measure variable. *)
      let measure_idx = List.length group_by in
      let measure_edges =
        List.filter_map
          (fun (i, v) ->
            if v = measure then
              Some
                {
                  src = { rel = source.Tgd.rel; idx = i };
                  dst = { rel = target; idx = measure_idx };
                  kind = Special;
                  via;
                }
            else None)
          (atom_var_positions source)
      in
      key_edges @ measure_edges
  | Tgd.Table_fn { source; target; _ } ->
      (* A table function maps a whole series to a new series over the
         same dimension grid: dimensions copy (ordinary), the measure
         is computed (special).  [Schema.arity] counts dimensions; the
         measure sits at index [arity]. *)
      let sa = arity source and ta = arity target in
      let dims =
        List.init
          (max 0 (min sa ta))
          (fun i ->
            {
              src = { rel = source; idx = i };
              dst = { rel = target; idx = i };
              kind = Ordinary;
              via;
            })
      in
      {
        src = { rel = source; idx = sa };
        dst = { rel = target; idx = ta };
        kind = Special;
        via;
      }
      :: dims
  | Tgd.Outer_combine { left; right; target; _ } ->
      (* Target dimensions are the left atom's dimension terms; the
         right atom joins by shared variable names.  The combined
         measure is computed from both measures (special). *)
      let split (a : Tgd.atom) =
        match List.rev a.Tgd.args with
        | meas :: rev_dims -> (List.rev rev_dims, Some meas)
        | [] -> ([], None)
      in
      let left_dims, left_meas = split left in
      let right_dims, right_meas = split right in
      let measure_idx = List.length left_dims in
      let dim_target v =
        (* position of variable [v] among the target's dimensions *)
        let rec find j = function
          | [] -> None
          | Term.Var x :: _ when x = v -> Some j
          | _ :: rest -> find (j + 1) rest
        in
        find 0 left_dims
      in
      let atom_dim_edges (a : Tgd.atom) dims =
        List.concat
          (List.mapi
             (fun i t ->
               List.filter_map
                 (fun v ->
                   Option.map
                     (fun j ->
                       {
                         src = { rel = a.Tgd.rel; idx = i };
                         dst = { rel = target; idx = j };
                         kind = Ordinary;
                         via;
                       })
                     (dim_target v))
                 (Term.vars t))
             dims)
      in
      let measure_edge (a : Tgd.atom) dims meas =
        match meas with
        | None -> []
        | Some _ ->
            [
              {
                src = { rel = a.Tgd.rel; idx = List.length dims };
                dst = { rel = target; idx = measure_idx };
                kind = Special;
                via;
              };
            ]
      in
      atom_dim_edges left left_dims
      @ atom_dim_edges right right_dims
      @ measure_edge left left_dims left_meas
      @ measure_edge right right_dims right_meas

let all_positions (m : Mapping.t) =
  List.concat_map
    (fun s ->
      (* dims plus the trailing measure position *)
      List.init (Schema.arity s + 1) (fun i -> { rel = s.Schema.name; idx = i }))
    (m.Mapping.source @ m.Mapping.target)

let all_edges (m : Mapping.t) =
  List.concat_map (tgd_edges m) (m.Mapping.st_tgds @ m.Mapping.t_tgds)

(* Tarjan's strongly connected components over the position graph. *)
let sccs positions edges =
  let n = List.length positions in
  let index_of = Hashtbl.create n in
  List.iteri (fun i p -> Hashtbl.replace index_of p i) positions;
  let succ = Array.make n [] in
  List.iter
    (fun e ->
      match (Hashtbl.find_opt index_of e.src, Hashtbl.find_opt index_of e.dst) with
      | Some u, Some v -> succ.(u) <- v :: succ.(u)
      | _ -> ())
    edges;
  let indices = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let comp = Array.make n (-1) in
  let comps = ref [] in
  let ncomp = ref 0 in
  let rec strongconnect v =
    indices.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if indices.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) indices.(w))
      succ.(v);
    if lowlink.(v) = indices.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- !ncomp;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      let members = pop [] in
      comps := members :: !comps;
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if indices.(v) = -1 then strongconnect v
  done;
  (* Tarjan pops sinks first; reversing the pop order… the [comps]
     list already accumulates in reverse pop order, which is a
     topological order of the condensation (sources first is the
     reverse).  We return the component array plus a topological
     ordering of component ids: components in [comps] head = last
     popped = topologically first. *)
  let topo = List.map (fun members -> comp.(List.hd members)) !comps in
  (index_of, comp, topo)

(* Shortest edge path from [src_pos] to [dst_pos] staying inside one
   SCC — used to render the offending cycle. *)
let path_within positions edges comp index_of src_pos dst_pos =
  let cid p =
    match Hashtbl.find_opt index_of p with Some i -> comp.(i) | None -> -1
  in
  let target_comp = cid src_pos in
  let inside e = cid e.src = target_comp && cid e.dst = target_comp in
  let parent = Hashtbl.create 16 in
  let visited = Hashtbl.create 16 in
  let queue = Queue.create () in
  Hashtbl.replace visited src_pos ();
  Queue.add src_pos queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    if u = dst_pos then found := true
    else
      List.iter
        (fun e ->
          if e.src = u && inside e && not (Hashtbl.mem visited e.dst) then begin
            Hashtbl.replace visited e.dst ();
            Hashtbl.replace parent e.dst e;
            Queue.add e.dst queue
          end)
        edges
  done;
  ignore positions;
  if not !found then []
  else
    let rec build p acc =
      if p = src_pos then acc
      else
        match Hashtbl.find_opt parent p with
        | Some e -> build e.src (e :: acc)
        | None -> acc
    in
    build dst_pos []

let check (m : Mapping.t) : (certificate, violation) result =
  let edges = all_edges m in
  (* include endpoints of edges through relations the mapping carries
     no schema for (hand-built mappings may omit them) *)
  let positions =
    let seen = Hashtbl.create 32 in
    let add p = if not (Hashtbl.mem seen p) then Hashtbl.replace seen p () in
    List.iter add (all_positions m);
    List.iter
      (fun e ->
        add e.src;
        add e.dst)
      edges;
    Hashtbl.fold (fun p () acc -> p :: acc) seen []
  in
  let index_of, comp, topo = sccs positions edges in
  let cid p =
    match Hashtbl.find_opt index_of p with Some i -> comp.(i) | None -> -1
  in
  (* each edge with the components of its endpoints, looked up once *)
  let comp_edges = List.map (fun e -> (e, cid e.src, cid e.dst)) edges in
  match
    List.find_opt
      (fun (e, cs, cd) -> e.kind = Special && cs = cd && cs >= 0)
      comp_edges
  with
  | Some (bad, _, _) ->
      (* close the loop: path dst → src inside the SCC, then the
         special edge back *)
      let back = path_within positions edges comp index_of bad.dst bad.src in
      Error { cycle = (bad :: back) }
  | None ->
      (* Rank per SCC: single pass over components in topological
         order, relaxing each component's outgoing edges, bucketed by
         source component (in edge order) so every edge is relaxed
         once.  Within an SCC all edges are ordinary, so one rank per
         component is consistent. *)
      let ncomp = List.length topo in
      let outgoing = Array.make (max 1 ncomp) [] in
      List.iter
        (fun (e, cs, cd) ->
          if cs <> cd && cs >= 0 && cd >= 0 then
            outgoing.(cs) <- (cd, if e.kind = Special then 1 else 0) :: outgoing.(cs))
        (List.rev comp_edges);
      let crank = Array.make (max 1 ncomp) 0 in
      List.iter
        (fun c ->
          List.iter
            (fun (cd, w) ->
              if crank.(c) + w > crank.(cd) then crank.(cd) <- crank.(c) + w)
            outgoing.(c))
        topo;
      let ranks =
        List.map
          (fun p ->
            let c = cid p in
            (p, if c >= 0 then crank.(c) else 0))
          positions
      in
      let max_rank = List.fold_left (fun acc (_, r) -> max acc r) 0 ranks in
      Ok { positions; edges; ranks; max_rank }

let verify (c : certificate) : (unit, string) result =
  (* the first binding of a position wins, as with [List.assoc] *)
  let ranks = Hashtbl.create (List.length c.ranks) in
  List.iter (fun (p, r) -> Hashtbl.replace ranks p r) (List.rev c.ranks);
  let check_edge e =
    match (Hashtbl.find_opt ranks e.src, Hashtbl.find_opt ranks e.dst) with
    | Some rs, Some rd ->
        let w = match e.kind with Ordinary -> 0 | Special -> 1 in
        if rd >= rs + w then Ok ()
        else
          Error
            (Printf.sprintf
               "rank constraint violated on %s.%d -> %s.%d: %d < %d + %d"
               e.src.rel e.src.idx e.dst.rel e.dst.idx rd rs w)
    | _ -> Error "certificate is missing a rank for an edge endpoint"
  in
  List.fold_left
    (fun acc e -> match acc with Error _ -> acc | Ok () -> check_edge e)
    (Ok ()) c.edges

let cycle_to_string (m : Mapping.t) cycle =
  String.concat " ; " (List.map (edge_to_string m) cycle)

let diagnose (m : Mapping.t) : Diagnostic.t list =
  match check m with
  | Ok _ -> []
  | Error { cycle } ->
      [
        Diagnostic.makef ~code:"E202"
          "mapping is not weakly acyclic: cycle through a value-creating \
           edge (%s); chase termination cannot be certified"
          (cycle_to_string m cycle);
      ]
