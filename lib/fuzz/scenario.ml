open Matrix

type t = {
  seed : int;
  profile : string;
  source : string;
  data : Registry.t;
  updates : Engine.Update.t list list;
  faults : Engine.Faults.plan option;
  axes : string list;
}

let ( let* ) = Result.bind

(* --- generation ------------------------------------------------------ *)

(* One revision batch over the elementary instance.  Measures are
   revised everywhere; keys are retracted only on non-temporal cubes so
   the generator's series-length guarantees (gating stl/diff) survive
   every batch.  [removed] tracks retractions across batches so a later
   batch never retracts an absent fact. *)
let rand_batch st data removed ~factor =
  List.concat_map
    (fun name ->
      let cube = Registry.find_exn data name in
      let temporal = Schema.time_dims (Cube.schema cube) <> [] in
      List.filter_map
        (fun (k, v) ->
          let key = Tuple.to_list k in
          if Hashtbl.mem removed (name, key) then None
          else
            let roll = Random.State.float st 1.0 in
            if roll < 0.1 then
              let f = Option.value ~default:1. (Value.to_float v) in
              Some
                (Engine.Update.set ~cube:name ~key
                   (Value.Float ((f *. factor) +. 1.)))
            else if (not temporal) && roll < 0.15 then (
              Hashtbl.replace removed (name, key) ();
              Some (Engine.Update.remove ~cube:name ~key))
            else None)
        (Cube.to_alist cube))
    (Registry.elementary_names data)

(* Sql-free fault plans: the always-capable sql target stays clean, so
   fallback terminates and a faulted run must be cube-equal to the
   fault-free one (the failure-transparency property). *)
let rand_faults st data =
  if Random.State.float st 1.0 < 0.5 then None
  else
    let cubes = None :: List.map Option.some (Registry.names data) in
    let n = Gen.rand_int st 1 3 in
    let triggers =
      List.init n (fun _ ->
          let stage = Gen.pick st [ Engine.Faults.Translate; Engine.Faults.Execute ] in
          let target = Gen.pick st [ "vector"; "etl" ] in
          let cube = Gen.pick st cubes in
          let kind =
            Gen.pick st
              [
                Engine.Faults.Execute_error "injected";
                Engine.Faults.Translate_error "injected";
                Engine.Faults.Timeout 0.;
                Engine.Faults.Worker_crash "injected";
              ]
          in
          let times = Gen.pick st [ 1; 2; 3; Engine.Faults.always ] in
          let probability = Gen.pick st [ 1.0; 0.5 ] in
          Engine.Faults.trigger ~target ?cube ~times ~probability stage kind)
    in
    Some (Engine.Faults.plan ~seed:(Gen.rand_int st 0 1_000_000) triggers)

let generate ?(profile = "quick") seed =
  let p = Option.value ~default:Gen.quick (Gen.profile_of_name profile) in
  let st = Random.State.make [| seed; 0xE1; 0x5E |] in
  let source, data = Gen.rand_program_and_data ~profile:p st in
  let removed = Hashtbl.create 16 in
  let n_batches = Gen.rand_int st 0 2 in
  let updates =
    List.init n_batches (fun _ ->
        rand_batch st data removed ~factor:(Gen.pick st [ 1.5; 0.5; 2.0 ]))
  in
  let faults = rand_faults st data in
  { seed; profile; source; data; updates; faults; axes = [] }

(* --- schemas from source -------------------------------------------- *)

let schemas_of_source source =
  match Exl.Parser.parse source with
  | Error e -> Error (Exl.Errors.to_string e)
  | Ok prog -> (
      try
        Ok
          (List.map
             (fun (d : Exl.Ast.decl) ->
               let dims =
                 List.map
                   (fun (n, kw) ->
                     match Domain.of_string kw with
                     | Some dom -> (n, dom)
                     | None -> failwith (Printf.sprintf "unknown domain %s" kw))
                   d.d_dims
               in
               Schema.make ~name:d.d_name ~dims ())
             (Exl.Ast.decls prog))
      with Failure msg | Invalid_argument msg -> Error msg)

(* --- repro files ----------------------------------------------------- *)

let data_lines data =
  List.concat_map
    (fun name ->
      let cube = Registry.find_exn data name in
      List.map
        (fun (k, v) ->
          Engine.Update.to_string
            (Engine.Update.set ~cube:name ~key:(Tuple.to_list k) v))
        (Cube.to_alist cube))
    (Registry.elementary_names data)

let section buf header lines =
  Buffer.add_string buf (header ^ " {\n");
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    lines;
  Buffer.add_string buf "}\n"

let trim_trailing_newlines s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = '\n' do
    decr n
  done;
  String.sub s 0 !n

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# exl-fuzz scenario repro\n";
  Buffer.add_string buf (Printf.sprintf "seed %d\n" t.seed);
  Buffer.add_string buf (Printf.sprintf "profile %s\n" t.profile);
  if t.axes <> [] then
    Buffer.add_string buf ("axes " ^ String.concat " " t.axes ^ "\n");
  section buf "program"
    (String.split_on_char '\n' (trim_trailing_newlines t.source));
  section buf "data" (data_lines t.data);
  List.iter
    (fun batch ->
      section buf "updates" (List.map Engine.Update.to_string batch))
    t.updates;
  (match t.faults with
  | None -> ()
  | Some plan ->
      section buf "faults"
        (String.split_on_char '\n'
           (trim_trailing_newlines (Engine.Faults.to_string plan))));
  Buffer.contents buf

type parse_state = {
  mutable p_seed : int;
  mutable p_profile : string;
  mutable p_axes : string list;
  mutable p_program : string list option;
  mutable p_data : string list;
  mutable p_updates : string list list;
  mutable p_faults : string list option;
}

let of_string text =
  let st =
    {
      p_seed = 0;
      p_profile = "quick";
      p_axes = [];
      p_program = None;
      p_data = [];
      p_updates = [];
      p_faults = None;
    }
  in
  let lines = String.split_on_char '\n' text in
  (* Collect sections: a section runs from "<name> {" to a line that is
     exactly "}".  Outside sections, blank lines and # comments are
     skipped and the remaining lines are directives. *)
  let rec directives = function
    | [] -> Ok ()
    | line :: rest -> (
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then directives rest
        else
          match String.split_on_char ' ' trimmed with
          | "seed" :: v :: _ -> (
              match int_of_string_opt v with
              | Some n ->
                  st.p_seed <- n;
                  directives rest
              | None -> Error (Printf.sprintf "bad seed line: %s" trimmed))
          | "profile" :: v :: _ ->
              st.p_profile <- v;
              directives rest
          | "axes" :: axes ->
              st.p_axes <- List.filter (fun a -> a <> "") axes;
              directives rest
          | [ name; "{" ] -> in_section name [] rest
          | _ -> Error (Printf.sprintf "unrecognized line: %s" trimmed))
  and in_section name acc = function
    | [] -> Error (Printf.sprintf "unterminated section %s" name)
    | "}" :: rest -> (
        let body = List.rev acc in
        match name with
        | "program" ->
            st.p_program <- Some body;
            directives rest
        | "data" ->
            st.p_data <- body;
            directives rest
        | "updates" ->
            st.p_updates <- st.p_updates @ [ body ];
            directives rest
        | "faults" ->
            st.p_faults <- Some body;
            directives rest
        | other -> Error (Printf.sprintf "unknown section %s" other))
    | line :: rest -> in_section name (line :: acc) rest
  in
  let* () = directives lines in
  let* program =
    match st.p_program with
    | Some p -> Ok p
    | None -> Error "repro has no program section"
  in
  let source = String.concat "\n" program ^ "\n" in
  let* schemas = schemas_of_source source in
  let schema_of name = List.find_opt (fun s -> s.Schema.name = name) schemas in
  let parse_batch what body =
    match
      Engine.Update.of_string ~schema_of (String.concat "\n" body ^ "\n")
    with
    | Ok ups -> Ok ups
    | Error msg -> Error (Printf.sprintf "%s section: %s" what msg)
  in
  let* data_updates = parse_batch "data" st.p_data in
  let registry = Registry.create () in
  List.iter (fun s -> Registry.declare registry Registry.Elementary s) schemas;
  List.iter
    (fun (u : Engine.Update.t) ->
      let cube = Registry.find_exn registry u.cube in
      match u.action with
      | Engine.Update.Set v -> Cube.set cube (Tuple.of_list u.key) v
      | Engine.Update.Remove -> Cube.remove cube (Tuple.of_list u.key))
    data_updates;
  let* updates =
    List.fold_left
      (fun acc body ->
        let* acc = acc in
        let* batch = parse_batch "updates" body in
        Ok (acc @ [ batch ]))
      (Ok []) st.p_updates
  in
  let* faults =
    match st.p_faults with
    | None -> Ok None
    | Some body -> (
        match Engine.Faults.of_string (String.concat "\n" body ^ "\n") with
        | Ok plan -> Ok (Some plan)
        | Error msg -> Error (Printf.sprintf "faults section: %s" msg))
  in
  Ok
    {
      seed = st.p_seed;
      profile = st.p_profile;
      source;
      data = registry;
      updates;
      faults;
      axes = st.p_axes;
    }

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_string text
  | exception Sys_error msg -> Error msg

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then (
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ())

let save ~dir ~name t =
  mkdirs dir;
  let path = Filename.concat dir name in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t));
  path
