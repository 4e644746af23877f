let needs_quote s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_field buf s =
  if needs_quote s then add_quoted buf s else Buffer.add_string buf s

(* Only strings can need quoting.  The empty string is written quoted,
   so it reads back apart from a missing value (an empty bare cell). *)
let add_value buf = function
  | Value.String "" -> Buffer.add_string buf "\"\""
  | Value.String s -> add_field buf s
  | v -> Value.add_to_buffer buf v

let add_header buf schema =
  Array.iter
    (fun d ->
      add_field buf d.Schema.dim_name;
      Buffer.add_char buf ',')
    schema.Schema.dims;
  add_field buf schema.Schema.measure_name;
  Buffer.add_char buf '\n'

(* Each distinct key value of a column rendered once, per code. *)
let cells dict =
  let buf = Buffer.create 16 in
  Array.init (Dict.size dict) (fun c ->
      Buffer.clear buf;
      add_value buf (Dict.decode dict c);
      Buffer.contents buf)

(* Row [r] of the view: its key cells, from [cells] unless the row's
   own key is an exception, then its measure. *)
let add_row buf (v : Cube.view) cells r =
  for i = 0 to Array.length cells - 1 do
    (match Cube.exception_at v i r with
    | Some x -> add_value buf x
    | None -> Buffer.add_string buf cells.(i).(Cube.code v i r));
    Buffer.add_char buf ','
  done;
  add_value buf v.Cube.measures.(r);
  Buffer.add_char buf '\n'

(* Row indices in key order: the order [Cube.to_alist] sorts in. *)
let sorted_rows v add = Array.iter add (Cube.key_order v)

let in_order v add =
  for r = 0 to v.Cube.size - 1 do
    add r
  done

(* About ten bytes a cell. *)
let text_size c =
  64 + (10 * Cube.cardinality c * (Schema.arity (Cube.schema c) + 1))

let cube_to_string c =
  let v = Cube.view c in
  let buf = Buffer.create (text_size c) in
  let cells = Array.map cells v.Cube.dicts in
  add_header buf (Cube.schema c);
  sorted_rows v (add_row buf v cells);
  Buffer.contents buf

(* Rows reach the channel through one buffer flushed whenever it holds
   [chunk] bytes, so a cube of any size needs no more memory than that.
   It is sized to the cube's text, capped at twice that: a small cube
   gets a small buffer, and the row crossing the mark never grows a
   capped one. *)
let chunk = 65536

let to_channel oc c rows =
  let v = Cube.view c in
  let buf = Buffer.create (min (2 * chunk) (text_size c)) in
  let cells = Array.map cells v.Cube.dicts in
  add_header buf (Cube.schema c);
  rows v (fun r ->
      add_row buf v cells r;
      if Buffer.length buf >= chunk then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end);
  Buffer.output_buffer oc buf

let cube_to_channel oc c = to_channel oc c sorted_rows
let cube_to_channel_unsorted oc c = to_channel oc c in_order

(* A cursor over CSV text.  [field] reads the field at [pos] and leaves
   [pos] on its terminator (',' or '\n') or at the end of the text.
   Quoting follows RFC 4180; '\r' is dropped outside quotes, so CRLF
   files read like LF ones.  A bare field is one [String.sub]; only a
   quoted one goes through [buf]. *)
type reader = {
  text : string;
  mutable pos : int;
  mutable quoted : bool;
  buf : Buffer.t;
}

let reader text = { text; pos = 0; quoted = false; buf = Buffer.create 32 }
let at_end r = r.pos >= String.length r.text
let at_row_end r = at_end r || r.text.[r.pos] = '\n'

let field r =
  let s = r.text and n = String.length r.text in
  let start = r.pos in
  if start < n && s.[start] = '"' then begin
    Buffer.clear r.buf;
    (* text after the closing quote is kept, up to the terminator *)
    let rec after i =
      if i >= n || s.[i] = ',' || s.[i] = '\n' then i
      else begin
        if s.[i] <> '\r' then Buffer.add_char r.buf s.[i];
        after (i + 1)
      end
    in
    let rec quoted i =
      if i >= n then i
      else if s.[i] <> '"' then begin
        Buffer.add_char r.buf s.[i];
        quoted (i + 1)
      end
      else if i + 1 < n && s.[i + 1] = '"' then begin
        Buffer.add_char r.buf '"';
        quoted (i + 2)
      end
      else after (i + 1)
    in
    r.quoted <- true;
    r.pos <- quoted (start + 1);
    Buffer.contents r.buf
  end
  else begin
    let rec bare i = if i >= n || s.[i] = ',' || s.[i] = '\n' then i else bare (i + 1) in
    let stop = bare start in
    r.quoted <- false;
    r.pos <- stop;
    let text = String.sub s start (stop - start) in
    if String.contains text '\r' then String.concat "" (String.split_on_char '\r' text)
    else text
  end

(* Steps over the terminator [field] stopped on. *)
let skip_terminator r = if not (at_end r) then r.pos <- r.pos + 1

(* Blank lines (nothing but an optional '\r') are skipped. *)
let rec skip_blank_lines r =
  let s = r.text and n = String.length r.text in
  let rec eol i = if i < n && s.[i] = '\r' then eol (i + 1) else i in
  let i = eol r.pos in
  if i < n && s.[i] = '\n' then begin
    r.pos <- i + 1;
    skip_blank_lines r
  end
  else if i >= n then r.pos <- n

let row_list r =
  let rec loop acc =
    let f = field r in
    let last = at_row_end r in
    skip_terminator r;
    if last then List.rev (f :: acc) else loop (f :: acc)
  in
  loop []

let parse_rows s =
  let r = reader s in
  let rec loop acc =
    skip_blank_lines r;
    if at_end r then List.rev acc else loop (row_list r :: acc)
  in
  loop []

exception Bad_row of string

(* One cell, read by its column's domain.  An empty bare cell is
   missing; an empty quoted one is the empty string where strings are
   admitted.  [Int], [Float] and [Any] keep the best-effort guess. *)
let cell ~line ~column dom quoted text =
  if text = "" then
    match dom with
    | (Domain.String | Domain.Any) when quoted -> Value.String ""
    | _ -> Value.Null
  else
    match Domain.parse dom text with
    | Some v -> v
    | None ->
        raise
          (Bad_row
             (Printf.sprintf "line %d: column %s: %S is not a %s" line column text
                (Domain.to_string dom)))

let cube_of_string schema s =
  let r = reader s in
  skip_blank_lines r;
  if at_end r then Error "empty CSV"
  else
    let header = row_list r in
    let expected = Schema.dim_names schema @ [ schema.Schema.measure_name ] in
    if header <> expected then
      Error
        (Printf.sprintf "header mismatch: expected %s, got %s"
           (String.concat "," expected)
           (String.concat "," header))
    else
      let arity = Schema.arity schema in
      let columns = Array.of_list expected in
      let domains =
        Array.append
          (Array.map (fun d -> d.Schema.dim_domain) schema.Schema.dims)
          [| schema.Schema.measure_domain |]
      in
      let c = Cube.create schema in
      (* [line] counts rows, blank lines excluded; the header is line 1. *)
      let read_row line =
        let cells = Array.make (arity + 1) Value.Null in
        let rec loop i =
          let text = field r in
          if i > arity then raise (Bad_row (Printf.sprintf "line %d: wrong arity" line));
          cells.(i) <- cell ~line ~column:columns.(i) domains.(i) r.quoted text;
          let last = at_row_end r in
          skip_terminator r;
          if not last then loop (i + 1)
          else if i < arity then
            raise (Bad_row (Printf.sprintf "line %d: wrong arity" line))
        in
        loop 0;
        let key = Tuple.of_array (Array.sub cells 0 arity) in
        if not (Schema.compatible_tuple schema key) then
          raise
            (Bad_row
               (Printf.sprintf "line %d: tuple %s out of domain" line
                  (Tuple.to_string key)));
        try Cube.add_strict c key cells.(arity)
        with Cube.Functionality_violation _ ->
          raise
            (Bad_row
               (Printf.sprintf "line %d: duplicate key %s with another %s" line
                  (Tuple.to_string key) schema.Schema.measure_name))
      in
      let rec rows line =
        skip_blank_lines r;
        if at_end r then Ok c
        else begin
          read_row line;
          rows (line + 1)
        end
      in
      try rows 2 with Bad_row msg -> Error msg
