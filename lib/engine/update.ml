open Matrix

type action = Set of Value.t | Remove
type t = { cube : string; key : Value.t list; action : action }

let set ~cube ~key v = { cube; key; action = Set v }
let remove ~cube ~key = { cube; key; action = Remove }

(* Last-wins compaction per (cube, key), stable in first-appearance
   order: applying the compacted batch leaves the store in the same
   state as applying the original in sequence. *)
let compact updates =
  (* Keys are matched with Value-aware tuple equality (Int 2 = Float 2.,
     like the store itself), not generic structural equality. *)
  let by_cube : (string, (int * t) Tuple.Table.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let next = ref 0 in
  List.iter
    (fun u ->
      let keys =
        match Hashtbl.find_opt by_cube u.cube with
        | Some tbl -> tbl
        | None ->
            let tbl = Tuple.Table.create 16 in
            Hashtbl.replace by_cube u.cube tbl;
            tbl
      in
      let key = Tuple.of_list u.key in
      match Tuple.Table.find_opt keys key with
      | Some (rank, _) -> Tuple.Table.replace keys key (rank, u)
      | None ->
          Tuple.Table.replace keys key (!next, u);
          incr next)
    updates;
  Hashtbl.fold
    (fun _ tbl acc -> Tuple.Table.fold (fun _ ranked acc -> ranked :: acc) tbl acc)
    by_cube []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  |> List.map snd

let concat batches = compact (List.concat batches)

let to_string u =
  let key = String.concat " " (List.map Value.to_string u.key) in
  match u.action with
  | Set v -> Printf.sprintf "set %s %s %s" u.cube key (Value.to_string v)
  | Remove -> Printf.sprintf "del %s %s" u.cube key

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse_line ~schema_of lineno line =
  let fail fmt = Printf.ksprintf (fun m -> Error m) ("line %d: " ^^ fmt) lineno in
  match tokens line with
  | [] -> Ok None
  | verb :: rest when verb = "set" || verb = "del" -> (
      match rest with
      | [] -> fail "missing cube name"
      | cube :: cells -> (
          match schema_of cube with
          | None -> fail "unknown cube %s" cube
          | Some schema ->
              let arity = Schema.arity schema in
              let expected = if verb = "set" then arity + 1 else arity in
              if List.length cells <> expected then
                fail "%s %s expects %d value(s), got %d" verb cube expected
                  (List.length cells)
              else
                (* Each cell is read by its column's domain; text that
                   does not parse stays a string, which the domain checks
                   below reject. *)
                let domains =
                  Array.append
                    (Array.map (fun d -> d.Schema.dim_domain) schema.Schema.dims)
                    [| schema.Schema.measure_domain |]
                in
                let vals =
                  List.mapi
                    (fun i text ->
                      Option.value ~default:(Value.String text)
                        (Domain.parse domains.(i) text))
                    cells
                in
                let key = List.filteri (fun i _ -> i < arity) vals in
                if not (Schema.compatible_tuple schema (Tuple.of_list key)) then
                  fail "key %s out of domain for %s"
                    (Tuple.to_string (Tuple.of_list key))
                    (Schema.to_string schema)
                else if verb = "del" then Ok (Some (remove ~cube ~key))
                else
                  let measure = List.nth vals arity in
                  if not (Domain.member measure schema.Schema.measure_domain)
                  then
                    fail "measure %s out of domain %s"
                      (Value.to_string measure)
                      (Domain.to_string schema.Schema.measure_domain)
                  else Ok (Some (set ~cube ~key measure))))
  | verb :: _ -> fail "unknown verb %s (expected set or del)" verb

let of_string ~schema_of text =
  let lines = String.split_on_char '\n' text in
  let rec loop lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match parse_line ~schema_of lineno line with
        | Error _ as e -> e
        | Ok None -> loop (lineno + 1) acc rest
        | Ok (Some u) -> loop (lineno + 1) (u :: acc) rest)
  in
  loop 1 [] lines
