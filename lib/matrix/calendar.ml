type frequency = Year | Semester | Quarter | Month | Week | Day

let frequency_to_string = function
  | Year -> "year"
  | Semester -> "semester"
  | Quarter -> "quarter"
  | Month -> "month"
  | Week -> "week"
  | Day -> "day"

let frequency_of_string s =
  match String.lowercase_ascii s with
  | "year" | "a" | "y" -> Some Year
  | "semester" | "s" -> Some Semester
  | "quarter" | "q" -> Some Quarter
  | "month" | "m" -> Some Month
  | "week" | "w" -> Some Week
  | "day" | "d" -> Some Day
  | _ -> None

let periods_per_year = function
  | Year -> Some 1
  | Semester -> Some 2
  | Quarter -> Some 4
  | Month -> Some 12
  | Week | Day -> None

let frequency_rank = function
  | Year -> 0
  | Semester -> 1
  | Quarter -> 2
  | Month -> 3
  | Week -> 4
  | Day -> 5

let compare_frequency a b = Int.compare (frequency_rank a) (frequency_rank b)

(* Integer division rounding towards negative infinity: period indices are
   negative before the epoch and truncation would break shifts there. *)
let floor_div a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let floor_mod a b =
  let r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then r + b else r

(* Zero-padded decimal digits written straight into bytes: the fast
   path of [%04d]/[%02d] for values known to fit the width. *)
let put_digits b pos width n =
  let n = ref n in
  for i = pos + width - 1 downto pos do
    Bytes.set b i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done

(* The same digits appended to a buffer, most significant first. *)
let rec add_digits buf width n =
  if width > 1 then add_digits buf (width - 1) (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let four_digit y = y >= 0 && y <= 9999

module Date = struct
  type t = { year : int; month : int; day : int }

  let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

  let days_in_month ~year ~month =
    match month with
    | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
    | 4 | 6 | 9 | 11 -> 30
    | 2 -> if is_leap_year year then 29 else 28
    | _ -> invalid_arg "Calendar.Date.days_in_month: month out of range"

  let make_opt ~year ~month ~day =
    if month < 1 || month > 12 then None
    else if day < 1 || day > days_in_month ~year ~month then None
    else Some { year; month; day }

  let make ~year ~month ~day =
    match make_opt ~year ~month ~day with
    | Some d -> d
    | None ->
        invalid_arg
          (Printf.sprintf "Calendar.Date.make: invalid date %d-%d-%d" year
             month day)

  let compare a b =
    match Int.compare a.year b.year with
    | 0 -> (
        match Int.compare a.month b.month with
        | 0 -> Int.compare a.day b.day
        | c -> c)
    | c -> c

  let equal a b = compare a b = 0

  (* Days since 0000-03-01, proleptic Gregorian (Hinnant's algorithm). *)
  let to_rata_die { year; month; day } =
    let y = if month <= 2 then year - 1 else year in
    let era = floor_div y 400 in
    let yoe = y - (era * 400) in
    let mp = (month + 9) mod 12 in
    let doy = (((153 * mp) + 2) / 5) + day - 1 in
    let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
    (era * 146097) + doe

  let of_rata_die z =
    let era = floor_div z 146097 in
    let doe = z - (era * 146097) in
    let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
    let y = yoe + (era * 400) in
    let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
    let mp = ((5 * doy) + 2) / 153 in
    let day = doy - (((153 * mp) + 2) / 5) + 1 in
    let month = if mp < 10 then mp + 3 else mp - 9 in
    let year = if month <= 2 then y + 1 else y in
    { year; month; day }

  let add_days d n = of_rata_die (to_rata_die d + n)
  let day_of_week d = floor_mod (to_rata_die d + 2) 7
  let to_string d =
    if not (four_digit d.year) then
      Printf.sprintf "%04d-%02d-%02d" d.year d.month d.day
    else begin
      let b = Bytes.create 10 in
      put_digits b 0 4 d.year;
      Bytes.set b 4 '-';
      put_digits b 5 2 d.month;
      Bytes.set b 7 '-';
      put_digits b 8 2 d.day;
      Bytes.unsafe_to_string b
    end

  let add_to_buffer buf d =
    if not (four_digit d.year) then Buffer.add_string buf (to_string d)
    else begin
      add_digits buf 4 d.year;
      Buffer.add_char buf '-';
      add_digits buf 2 d.month;
      Buffer.add_char buf '-';
      add_digits buf 2 d.day
    end

  let of_string s =
    match String.split_on_char '-' s with
    | [ y; m; d ] -> (
        match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d)
        with
        | Some year, Some month, Some day -> make_opt ~year ~month ~day
        | _ -> None)
    | _ -> None
end

module Period = struct
  type t = { freq : frequency; index : int }

  let make freq index = { freq; index }
  let freq p = p.freq
  let index p = p.index
  let year y = { freq = Year; index = y }

  let check_sub name lo hi s =
    if s < lo || s > hi then
      invalid_arg (Printf.sprintf "Calendar.Period.%s: ordinal %d not in %d..%d" name s lo hi)

  let semester y s =
    check_sub "semester" 1 2 s;
    { freq = Semester; index = (y * 2) + s - 1 }

  let quarter y q =
    check_sub "quarter" 1 4 q;
    { freq = Quarter; index = (y * 4) + q - 1 }

  let month y m =
    check_sub "month" 1 12 m;
    { freq = Month; index = (y * 12) + m - 1 }

  let day d = { freq = Day; index = Date.to_rata_die d }

  (* Weeks start on Monday; the week index is the floor of (rata die + 2)/7
     so that Mondays open a new index. *)
  let week_index_of_date d = floor_div (Date.to_rata_die d + 2) 7
  let week_start_rd w = (7 * w) - 2

  let of_date freq (d : Date.t) =
    match freq with
    | Year -> { freq; index = d.Date.year }
    | Semester -> { freq; index = (d.Date.year * 2) + ((d.Date.month - 1) / 6) }
    | Quarter -> { freq; index = (d.Date.year * 4) + ((d.Date.month - 1) / 3) }
    | Month -> { freq; index = (d.Date.year * 12) + (d.Date.month - 1) }
    | Week -> { freq; index = week_index_of_date d }
    | Day -> { freq; index = Date.to_rata_die d }

  let week y w =
    (* ISO rule: week 1 of year [y] is the week containing January 4th. *)
    let jan4 = Date.make ~year:y ~month:1 ~day:4 in
    { freq = Week; index = week_index_of_date jan4 + w - 1 }

  let start_date p =
    match p.freq with
    | Year -> Date.make ~year:p.index ~month:1 ~day:1
    | Semester ->
        Date.make ~year:(floor_div p.index 2)
          ~month:((floor_mod p.index 2 * 6) + 1)
          ~day:1
    | Quarter ->
        Date.make ~year:(floor_div p.index 4)
          ~month:((floor_mod p.index 4 * 3) + 1)
          ~day:1
    | Month ->
        Date.make ~year:(floor_div p.index 12)
          ~month:(floor_mod p.index 12 + 1)
          ~day:1
    | Week -> Date.of_rata_die (week_start_rd p.index)
    | Day -> Date.of_rata_die p.index

  let shift p s = { p with index = p.index + s }

  let end_date p =
    Date.add_days (start_date (shift p 1)) (-1)

  let year_of p =
    match p.freq with
    | Year -> p.index
    | Semester -> floor_div p.index 2
    | Quarter -> floor_div p.index 4
    | Month -> floor_div p.index 12
    | Week ->
        (* ISO year: the year of the week's Thursday. *)
        (Date.of_rata_die (week_start_rd p.index + 3)).Date.year
    | Day -> (start_date p).Date.year

  let sub_of p =
    match p.freq with
    | Year -> 1
    | Semester -> floor_mod p.index 2 + 1
    | Quarter -> floor_mod p.index 4 + 1
    | Month -> floor_mod p.index 12 + 1
    | Week ->
        let thursday = Date.of_rata_die (week_start_rd p.index + 3) in
        let iso_year = thursday.Date.year in
        p.index - (week iso_year 1).index + 1
    | Day ->
        let d = start_date p in
        Date.to_rata_die d
        - Date.to_rata_die (Date.make ~year:d.Date.year ~month:1 ~day:1)
        + 1

  let compare a b =
    match compare_frequency a.freq b.freq with
    | 0 -> Int.compare a.index b.index
    | c -> c

  let hash p = (frequency_rank p.freq * 1000003) lxor p.index

  let convert target p =
    if compare_frequency target p.freq > 0 then
      invalid_arg "Calendar.Period.convert: cannot convert to finer frequency"
    else of_date target (start_date p)

  let range a b =
    if a.freq <> b.freq then
      invalid_arg "Calendar.Period.range: frequency mismatch";
    let rec loop i acc =
      if i < a.index then acc else loop (i - 1) ({ a with index = i } :: acc)
    in
    loop b.index []

  (* [YYYY<tag><sub>], the sub-period zero-padded to [width]. *)
  let tagged p tag width =
    let y = year_of p and sub = sub_of p in
    if not (four_digit y) then Printf.sprintf "%04d%c%0*d" y tag width sub
    else begin
      let b = Bytes.create (5 + width) in
      put_digits b 0 4 y;
      Bytes.set b 4 tag;
      put_digits b 5 width sub;
      Bytes.unsafe_to_string b
    end

  let to_string p =
    match p.freq with
    | Year ->
        if four_digit p.index then begin
          let b = Bytes.create 4 in
          put_digits b 0 4 p.index;
          Bytes.unsafe_to_string b
        end
        else Printf.sprintf "%04d" p.index
    | Semester -> tagged p 'S' 1
    | Quarter -> tagged p 'Q' 1
    | Month -> tagged p 'M' 2
    | Week -> tagged p 'W' 2
    | Day -> Date.to_string (start_date p)

  let of_string s =
    let int_at i j = int_of_string_opt (String.sub s i (j - i)) in
    let n = String.length s in
    let tagged tag mk =
      match String.index_opt s tag with
      | Some i when i > 0 && i < n - 1 -> (
          match (int_at 0 i, int_at (i + 1) n) with
          | Some y, Some sub -> ( try Some (mk y sub) with Invalid_argument _ -> None)
          | _ -> None)
      | _ -> None
    in
    if String.contains s '-' then
      Option.map day (Date.of_string s)
    else
      match tagged 'S' semester with
      | Some _ as r -> r
      | None -> (
          match tagged 'Q' quarter with
          | Some _ as r -> r
          | None -> (
              match tagged 'M' month with
              | Some _ as r -> r
              | None -> (
                  match tagged 'W' week with
                  | Some _ as r -> r
                  | None -> Option.map year (int_of_string_opt s))))
end
