(** Parser for the tgd logic notation.

    Reads back exactly what {!Tgd.to_string} / {!Mapping.to_string}
    print — so mappings can be stored as text in a metadata catalog, or
    authored by hand and handed to any target translator directly.
    Both the Unicode connectives (∧, →, ∨) and ASCII spellings
    ([&], [->], [|]) are accepted; comment lines ([--]), blank lines,
    leading "(n)" numbering and functionality-egd lines are skipped by
    {!tgds_of_string}. *)

val tgd_of_string : string -> (Tgd.t, string) result

val tgds_of_string : string -> (Tgd.t list, string) result
(** Parses a whole listing (e.g. the output of
    {!Mapping.to_string}). *)

