import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalelab import _files
from scalelab.frontier import FRONTIER_CSV_HEADER, read_frontier_csv
from scalelab.params import load_model_configs

_BOM = b"\xef\xbb\xbf"
_CONFIG_HEADER = b"name,d_model,n_layers,vocab,context_learned"


def _reference_read_csv(path, source):
    """The header and rows of ``csv.DictReader`` over the file's text after a byte-order
    mark, decoded with each byte that is not UTF-8 as a lone surrogate.  Scanning the
    ``csv.reader`` records, a csv error, or the first record that holds a surrogate, is
    named as ``csv.DictReader`` counts records: the first is the header and a blank row
    after it does not count."""
    data = Path(path).read_bytes().removeprefix(_BOM)
    text = data.decode("utf-8", "surrogateescape")
    k, where = 0, "header"
    try:
        for record in csv.reader(io.StringIO(text, newline="")):
            if k and not record:
                continue
            try:
                "".join(record).encode("utf-8")
            except UnicodeEncodeError:
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    reason = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
                raise ValueError(f"{source} {where}: {reason}") from None
            k += 1
            where = f"row {k}"
    except csv.Error as exc:
        raise ValueError(f"{source} {where}: {exc}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    return reader.fieldnames, list(reader)


def _outcome(load, path):
    """What ``load(path)`` gives: its ValueError's message, or its result as comparable
    values."""
    try:
        result = load(path)
    except ValueError as exc:
        return str(exc)
    if isinstance(result, list):  # ParamSplits
        return result
    return result.basis, [getattr(result, name).tobytes() for name in
                          ("c", "loss_min", "n_opt", "d_opt", "model_index")]


_PIECES = st.sampled_from([
    b",", b'"', b"\r", b"\n", b"\r\n", b"\n\n", b"\r\n\r\n",
    b"1", b"2.5", b"total", b"a,512,8,32000,0\n", b"total,1e10,3.0,1e3,1e6,1\n",
    "é".encode(), "€".encode(), "𝄞".encode(),
    b"\xff", b"\xe2", b"\xc3", b"\xe2\x82", b"\xf0\x9d\x84", b"\xed\xa0\x80",
])
_FILES = st.builds(
    lambda bom, header, pieces: (_BOM if bom else b"") + header + b"".join(pieces),
    st.booleans(),
    st.sampled_from([b"", FRONTIER_CSV_HEADER.encode() + b"\n", _CONFIG_HEADER + b"\n"]),
    st.lists(_PIECES, max_size=30))


@settings(deadline=None, max_examples=300)
@given(_FILES)
@example(b"")
@example(_BOM)
@example(b"\xff")
@example(_CONFIG_HEADER + b"\n\n\xffb,1,2,3,4\n")
@example(_CONFIG_HEADER + b'\na,512,8,32000,0\n"b\n\xff"\n')
@example(FRONTIER_CSV_HEADER.encode() + b"\r\xff")
def test_each_loader_names_the_record_the_reference_names(data):
    """The loaders, which read a file once and name a byte that is not UTF-8 by the record
    that its one-character stand-in ends, raise the message, or return the frontier or
    splits, that they do on a reader that decodes every byte and scans every record."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(data)
        for load in (read_frontier_csv, load_model_configs):
            got = _outcome(load, path)
            with mock.patch.object(_files, "read_csv", _reference_read_csv):
                assert got == _outcome(load, path)
