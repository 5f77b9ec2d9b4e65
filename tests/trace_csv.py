"""The tests' reader of the trace CSVs that `bench.write_trace_csv` persists."""

from admmkit.bench import CSV_HEADER
from admmkit.trace import Trace, TraceRow


def read_trace_csv(path):
    """Inverse of write_trace_csv."""
    trace = Trace()
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            trace.meta[key] = value
        elif line:
            body.append(line)
    if not body or body[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing trace header")
    for line in body[1:]:
        cells = line.split(",")
        opt = lambda c: None if c == "" else float(c)
        trace.append(TraceRow(
            k=int(cells[0]), norm_v=float(cells[1]), cos_theta=opt(cells[2]),
            dist_z=opt(cells[3]), dist_x=opt(cells[4]), objective=opt(cells[5]),
            extrapolated=cells[6] == "1", ms=float(cells[7])))
    return trace
