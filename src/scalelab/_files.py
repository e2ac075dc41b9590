"""Input files, each read once and decoded once as UTF-8 after a leading byte-order mark,
which spreadsheet programs write.  A byte that is not UTF-8 ends the text; the loaders name
it by the record that holds it or, in a spec file, by its offset from the first byte."""


def decode(path) -> tuple[str, tuple[int, str] | None]:
    """The text of the file at ``path`` and None; or, if a byte is not UTF-8, the text
    before it and the byte's file offset and message."""
    with open(path, "rb") as fh:
        data = fh.read()
    skip = 3 if data.startswith(b"\xef\xbb\xbf") else 0  # the byte-order mark
    try:
        return str(data[skip:], "utf-8"), None
    except UnicodeDecodeError as exc:
        end = skip + exc.start
        bad = f"byte 0x{data[end]:02x} is not UTF-8 ({exc.reason})"
        return str(data[skip:end], "utf-8"), (end, bad)


def read_csv(path, source: str):
    """The header and row dicts of the CSV file at ``path``, as ``csv.DictReader`` reads
    them.  A line the csv module cannot read, such as one with a field beyond its size
    limit, or a byte that is not UTF-8, is a ValueError naming the file ``source`` and the
    header or row of the first fault in the file."""
    import csv
    import io

    text, bad = decode(path)
    # One character stands for the record holding the bad byte, so it is the last one read.
    reader = csv.DictReader(io.StringIO(text + "?" if bad else text, newline=""))
    rows = None
    try:
        header, rows = reader.fieldnames, []
        for row in reader:
            rows.append(row)
    except csv.Error as exc:
        where = "header" if rows is None else f"row {len(rows) + 1}"
        raise ValueError(f"{source} {where}: {exc}") from None
    if bad:
        raise ValueError(f"{source} {f'row {len(rows)}' if rows else 'header'}: {bad[1]}")
    return header, rows


def parse_field(row: dict, k: int, name: str, kind, source: str):
    """``kind(row[name])``, or a ValueError naming the file ``source``, row ``k`` and column."""
    text = row[name]
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{source} row {k} column {name!r} must be {noun}, got {text!r}") from None
