"""Independent reference check: simulate a BLIF against its PLA.

Standard library only.  This module deliberately imports nothing from
the ``repro`` package, so a defect in the BDD kernel, the
decomposition engine or the netlist code cannot make a wrong netlist
pass.  Signals are Python integers used as bit vectors: bit ``k`` of
every signal is the value under input vector ``k``.

* PLA semantics follow espresso types ``f`` and ``fd``: a vector must
  give 1 when an on-cube covers it and no don't-care cube does, and 0
  when no on-cube and no don't-care cube covers it.
* Vectors are exhaustive up to :data:`EXHAUSTIVE_INPUTS` inputs and a
  seeded uniform sample of :data:`SAMPLE_VECTORS` above that.
* Cost counts follow the paper's model: every two-input table is a
  gate (area 2, EXOR/EXNOR area 5), a one-input complement is an
  inverter (area 1), buffers and constants are free.  Only the cones
  of the declared outputs count.
"""

import random

EXHAUSTIVE_INPUTS = 16
SAMPLE_VECTORS = 1 << 16

_XOR_TABLES = (frozenset({"10", "01"}), frozenset({"11", "00"}))


class CheckError(Exception):
    """A file the checker cannot read (malformed PLA or BLIF)."""


def _logical_lines(text):
    """Lines without comments, with ``\\`` continuations joined."""
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = (pending + line).strip()
        pending = ""
        if line:
            yield line
    if pending.strip():
        yield pending.strip()


class PLA:
    """Parsed espresso PLA: names plus ``(input plane, output plane)`` rows."""

    def __init__(self, text):
        self.inputs = self.outputs = None
        self.rows = []
        num_in = num_out = None
        pla_type = "fd"
        for line in _logical_lines(text):
            parts = line.split()
            if parts[0] == ".i":
                num_in = int(parts[1])
            elif parts[0] == ".o":
                num_out = int(parts[1])
            elif parts[0] == ".ilb":
                self.inputs = parts[1:]
            elif parts[0] == ".ob":
                self.outputs = parts[1:]
            elif parts[0] == ".type":
                pla_type = parts[1]
            elif parts[0] in (".p", ".e", ".end"):
                continue
            elif parts[0].startswith("."):
                raise CheckError("unsupported PLA directive %r" % parts[0])
            elif len(parts) == 2:
                self.rows.append((parts[0], parts[1]))
            else:
                raise CheckError("cannot parse PLA row %r" % line)
        if num_in is None or num_out is None:
            raise CheckError("PLA lacks .i/.o")
        if pla_type not in ("f", "fd"):
            raise CheckError("unsupported PLA type %r" % pla_type)
        self.dc_allowed = pla_type == "fd"
        self.inputs = self.inputs or ["x%d" % i for i in range(num_in)]
        self.outputs = self.outputs or ["y%d" % i for i in range(num_out)]
        if len(self.inputs) != num_in or len(self.outputs) != num_out:
            raise CheckError("PLA .ilb/.ob disagree with .i/.o")
        for ins, outs in self.rows:
            if len(ins) != num_in or len(outs) != num_out:
                raise CheckError("PLA row %r %r has the wrong width"
                                 % (ins, outs))


def input_vectors(names, seed_key):
    """``(width, {name: bit vector})``: exhaustive or seeded sample."""
    n = len(names)
    if n <= EXHAUSTIVE_INPUTS:
        width = 1 << n
        vectors = {}
        for i, name in enumerate(names):
            half = 1 << i
            pattern = ((1 << half) - 1) << half
            length = 2 * half
            while length < width:
                pattern |= pattern << length
                length *= 2
            vectors[name] = pattern
        return width, vectors
    rng = random.Random(seed_key)
    return SAMPLE_VECTORS, {name: rng.getrandbits(SAMPLE_VECTORS)
                            for name in names}


class Spec:
    """Care sets of a PLA over a fixed vector set.

    ``must1[name]`` / ``must0[name]`` are the vectors where output
    *name* is required to be 1 / 0.  Built once per PLA and reused for
    every netlist checked against it.
    """

    def __init__(self, pla, seed_key):
        self.pla = pla
        self.width, self.vectors = input_vectors(pla.inputs, seed_key)
        mask = (1 << self.width) - 1
        self.mask = mask
        columns = [(self.vectors[name], self.vectors[name] ^ mask)
                   for name in pla.inputs]
        on = [0] * len(pla.outputs)
        dc = [0] * len(pla.outputs)
        for ins, outs in pla.rows:
            term = mask
            for (pos, neg), symbol in zip(columns, ins):
                if symbol == "1":
                    term &= pos
                elif symbol == "0":
                    term &= neg
                if not term:
                    break
            if not term:
                continue
            for j, symbol in enumerate(outs):
                if symbol == "1":
                    on[j] |= term
                elif symbol == "-" and pla.dc_allowed:
                    dc[j] |= term
        self.must1 = {}
        self.must0 = {}
        for j, name in enumerate(pla.outputs):
            self.must1[name] = on[j] & ~dc[j] & mask
            self.must0[name] = ~(on[j] | dc[j]) & mask


class Netlist:
    """Parsed BLIF: inputs, outputs and ``.names`` tables by signal."""

    def __init__(self, text):
        self.inputs = []
        self.outputs = []
        self.tables = {}  # signal -> (fanins, rows)
        current = None
        for line in _logical_lines(text):
            parts = line.split()
            keyword = parts[0]
            if keyword == ".model":
                continue
            if keyword == ".inputs":
                self.inputs.extend(parts[1:])
                current = None
            elif keyword == ".outputs":
                self.outputs.extend(parts[1:])
                current = None
            elif keyword == ".names":
                if len(parts) < 2:
                    raise CheckError(".names without an output")
                signal = parts[-1]
                if signal in self.tables:
                    raise CheckError("signal %r driven twice" % signal)
                current = (parts[1:-1], [])
                self.tables[signal] = current
            elif keyword == ".end":
                current = None
            elif keyword.startswith("."):
                raise CheckError("unsupported BLIF directive %r" % keyword)
            else:
                if current is None:
                    raise CheckError("table row %r outside .names" % line)
                fanins, rows = current
                if fanins:
                    if len(parts) != 2 or len(parts[0]) != len(fanins):
                        raise CheckError("bad table row %r" % line)
                    rows.append((parts[0], parts[1]))
                else:
                    if len(parts) != 1:
                        raise CheckError("bad constant row %r" % line)
                    rows.append(("", parts[0]))
        for signal, (_fanins, rows) in self.tables.items():
            values = {value for _ins, value in rows}
            if not values <= {"0", "1"} or len(values) > 1:
                raise CheckError("table for %r mixes output values %s"
                                 % (signal, sorted(values)))

    def cone(self):
        """Signals in the fan-in cones of the outputs, topologically."""
        order = []
        state = {}
        for root in self.outputs:
            stack = [(root, False)]
            while stack:
                signal, expanded = stack.pop()
                if expanded:
                    state[signal] = 2
                    order.append(signal)
                    continue
                if state.get(signal) == 2:
                    continue
                if state.get(signal) == 1:
                    raise CheckError("combinational cycle through %r"
                                     % signal)
                if signal not in self.tables:
                    if signal not in self.inputs:
                        raise CheckError("signal %r is never driven"
                                         % signal)
                    state[signal] = 2
                    continue
                state[signal] = 1
                stack.append((signal, True))
                for fanin in self.tables[signal][0]:
                    if state.get(fanin) != 2:
                        stack.append((fanin, False))
        return order

    def simulate(self, vectors, mask):
        """``{output: bit vector}`` under the given input vectors."""
        values = {}
        for name in self.inputs:
            if name not in vectors:
                raise CheckError("BLIF input %r is not a PLA input" % name)
            values[name] = vectors[name]
        for signal in self.cone():
            if signal not in self.tables:
                continue
            fanins, rows = self.tables[signal]
            columns = [values[f] for f in fanins]
            acc = 0
            for ins, _value in rows:
                term = mask
                for column, symbol in zip(columns, ins):
                    if symbol == "1":
                        term &= column
                    elif symbol == "0":
                        term &= ~column
                acc |= term
            if rows and rows[0][1] == "0":
                acc = ~acc
            values[signal] = acc & mask
        return {name: values[name] for name in self.outputs}

    def costs(self):
        """Paper cost model over the output cones (see the module doc)."""
        gates = exors = inverters = 0
        area = 0.0
        for signal in self.cone():
            if signal not in self.tables:
                continue
            fanins, rows = self.tables[signal]
            if len(fanins) == 2:
                gates += 1
                on_rows = frozenset(ins for ins, value in rows
                                    if value == "1")
                if on_rows in _XOR_TABLES and len(rows) == 2:
                    exors += 1
                    area += 5.0
                else:
                    area += 2.0
            elif len(fanins) == 1 and rows == [("0", "1")]:
                inverters += 1
                area += 1.0
            elif len(fanins) > 2:
                raise CheckError("%r has %d fan-ins; the netlist model is "
                                 "two-input gates" % (signal, len(fanins)))
        return {"gates": gates, "exors": exors, "inverters": inverters,
                "area": area}


def check(spec, blif_text):
    """Mismatches of a BLIF against *spec*: a list of messages (empty = ok)."""
    netlist = Netlist(blif_text)
    values = netlist.simulate(spec.vectors, spec.mask)
    problems = []
    for name in spec.pla.outputs:
        if name not in values:
            problems.append("output %s missing from the netlist" % name)
            continue
        value = values[name]
        bad = (spec.must1[name] & ~value) | (spec.must0[name] & value)
        if bad:
            first = (bad & -bad).bit_length() - 1
            problems.append("output %s wrong on %d of %d vectors (first: "
                            "vector %d)" % (name, bin(bad).count("1"),
                                            spec.width, first))
    return problems


def flip_one_row(blif_text):
    """Canary mutant: flip the first literal of one ``.names`` row.

    The row chosen is the first one of the table that drives the first
    declared output (or, for an output driven straight by an input or
    a constant, the last table with a literal).  Returns the mutated
    text.
    """
    lines = blif_text.split("\n")
    netlist = Netlist(blif_text)
    target = netlist.outputs[0] if netlist.outputs else None
    if target not in netlist.tables or not netlist.tables[target][0]:
        candidates = [s for s, (f, rows) in netlist.tables.items()
                      if f and rows]
        if not candidates:
            raise CheckError("no .names row to mutate")
        target = candidates[-1]
    for i, line in enumerate(lines):
        parts = line.split()
        if parts and parts[0] == ".names" and parts[-1] == target:
            row = lines[i + 1]
            for k, symbol in enumerate(row):
                if symbol in "01":
                    lines[i + 1] = (row[:k] + ("1" if symbol == "0" else "0")
                                    + row[k + 1:])
                    return "\n".join(lines)
    raise CheckError("table for %r has no literal to flip" % target)
