"""Chain orchestration: initialization, prior and back-off configuration,
sampling in divisions with optional checkpointing, burn-in, and counters.

The chain is one growing float64 array. A checkpoint is one file:

- a header: the magic ``GNMHCKPT``, then the format version and the slot
  size as little-endian 32-bit integers;
- two slots of that size, each a state document followed by zero bytes, or
  all zeros. A document is compact JSON from ``json``, numbers in shortest
  round-trip form, with a CRC-32 checksum over its own text (the document
  without its checksum field). It holds every fact but the chain rows,
  each once, so a resumed run continues bit-identically; it names its save
  number, the chain's row count and the rows' CRC-32;
- the chain rows as raw little-endian float64, row after row.

A save by the sampler that last wrote or loaded the file appends: it
writes the rows added since the newest slot's rows after them, cuts the
file there, writes its document into the other slot and fsyncs the file.
Neither write touches what the newest slot reads, and a slot counts only
when its text and its rows match their CRC-32s, so a save stopped at any
point, its writes persisted in any order or torn, leaves the previous
state or the new one. Any other save writes the whole file to a temp file,
fsynced and renamed over the path, and fsyncs the directory.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from typing import Dict, NamedTuple, Optional, Union

import numpy as np

from . import diagnostics, kernel
from .errors import (
    BurnTooLarge,
    CheckpointWriteFailure,
    CorruptCheckpoint,
    DimensionMismatch,
    GnmhError,
    InitialGuessOutsideDomain,
    IOFailure,
    SingularProposal,
    check_count,
    check_finite,
)
from .gaussian import _solve_lower
from .kernel import BackoffPolicy
from .model import ModelHandle
from .posterior import GaussianPrior, point_state_from_eval

_CHECKPOINT_VERSION = 5
_CHECKSUM_KEY = b',"checksum":'
# the magic, the format version and the slot size
_HEADER = struct.Struct("<8sII")
_MAGIC = b"GNMHCKPT"
# a slot's save number, read to order the slots before either is parsed
_SAVE = re.compile(rb'"save":(\d+),')


def _checksum_field(crc: int) -> bytes:
    """The checksum field and the end of the document, for the CRC-32
    ``crc`` of the document text without that field."""
    return _CHECKSUM_KEY + b'"%08x"}\n' % crc


class _Written(NamedTuple):
    """The checkpoint file a sampler last wrote or loaded: its header and
    both slots, and the newest slot's save number, row count and rows'
    CRC-32. Those rows are the first rows of the sampler's chain."""

    head: bytes
    save: int
    rows: int
    crc: int


def _check_version(version) -> None:
    """Refuse, naming it, any format version but this release's."""
    if version != _CHECKPOINT_VERSION:
        raise CorruptCheckpoint(f"checkpoint format version {version} is not "
                                f"supported; this release reads version "
                                f"{_CHECKPOINT_VERSION}")


def _parse(text: bytes) -> dict:
    """The JSON document ``text``. ``CorruptCheckpoint`` refuses text that is
    not JSON and another format version, named by its number."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptCheckpoint(f"checkpoint is not valid JSON: {exc}") from exc
    _check_version(doc.get("format_version") if isinstance(doc, dict) else None)
    return doc


def _read_document(slot: bytes) -> Optional[dict]:
    """The state document in the bytes of a slot, judged by ``_parse``; None
    when the text before the zero fill does not match its CRC-32, as in a
    slot a stopped save left torn or one never written."""
    text = slot.rstrip(b"\0")
    # the CRC of the text before the checksum field, closed with "}"
    end = text.rfind(_CHECKSUM_KEY)
    if end < 0 or text[end:] != _checksum_field(zlib.crc32(b"}", zlib.crc32(text[:end]))):
        return None
    return _parse(text)


def _numbers(name: str, values) -> np.ndarray:
    """The list of JSON numbers ``values`` read from a state document, as a
    float array: ``ValueError`` refuses anything else, such as a string or a
    boolean, which numpy would convert."""
    if type(values) is not list or not all(type(v) in (int, float) for v in values):
        raise ValueError(f"{name} {values!r} is not a list of numbers")
    return np.array(values, dtype=float)


def _raw_rows(rows: np.ndarray) -> memoryview:
    """The bytes of ``rows`` as little-endian float64, row after row."""
    return memoryview(np.ascontiguousarray(rows, dtype="<f8").reshape(-1).view(np.uint8))


def _write(fd: int, data, offset: int) -> int:
    """Write the bytes ``data`` at ``offset`` in the file ``fd``; return the
    offset after them."""
    view = memoryview(data)
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written
    return offset


class Sampler:
    """Markov chain sampler for targets indicator * prior * exp(-||f||^2/2).

    Parameters
    ----------
    x0 : array_like
        Initial guess; the model is evaluated here immediately, at a copy,
        so the caller may reuse its array.
    model : ModelHandle
        The wrapped user model.
    seed : int, optional
        Seed for the internal generator. Chains are bit-reproducible given
        a seed, regardless of division layout or checkpoint interruptions.
    prior : GaussianPrior, optional
        Defaults to flat (zero precision about ``x0``); fixed from then on.
        A model with fewer residuals than parameters needs an informative
        prior here, since the flat-prior proposal precision J'J is singular.

    The back-off policy defaults to none; see :meth:`set_static`,
    :meth:`set_dynamic`, or assign a ``BackoffPolicy`` to ``policy``.

    ``call_count`` counts this sampler's own model calls (at ``x0`` and in
    its transitions), not others' through its handle.

    Raises
    ------
    DimensionMismatch
        If the prior's dimension is not the model's (before any model call).
    InitialGuessOutsideDomain
        If ``x0`` has a NaN or infinite entry (before any model call), the
        model indicator is 0 at ``x0``, the Gauss-Newton mean there is not
        finite (the residual has an infinite entry, the prior term
        H(m - x0) overflows, or a subnormal J'J scales the step past the
        float range), or the target density there is 0 (||f||^2 or the
        prior term overflows).
    SingularProposal
        If the Gauss-Newton proposal cannot be built at ``x0`` under the
        (possibly flat) prior.
    """

    def __init__(self, x0, model: ModelHandle, seed: Optional[int] = None,
                 prior: Optional[GaussianPrior] = None):
        self.model = model
        x0 = np.array(x0, dtype=float).reshape(-1)
        check_finite(f"initial guess x0 = {x0.tolist()}", x0, InitialGuessOutsideDomain)
        if prior is not None and prior.dim != model.dim_in:
            raise DimensionMismatch(f"prior dimension {prior.dim}, model expects {model.dim_in}")
        # the evaluation and the build judge an overflow themselves, under any
        # warning filter; this keeps numpy's own text off stderr (once per
        # start, not per transition)
        with np.errstate(over="ignore", invalid="ignore"):
            ev = model.evaluate(x0)
            if not ev.inside:
                raise InitialGuessOutsideDomain("model indicator is 0 at the initial guess")
            if prior is None:
                prior = GaussianPrior.flat(ev.x)
            state = point_state_from_eval(prior, ev)
            if state.chol is None:
                raise SingularProposal(
                    f"Gauss-Newton proposal undefined at x = {ev.x.tolist()} under this prior"
                )
            # a zero-density point, or one whose J'J is subnormal, may keep a
            # proposal whose mean x + L^-T v is not finite; no draw from it
            # would be finite either
            mean = state.x + _solve_lower(state.chol, state.v, trans=1)
        if not np.isfinite(mean).all():
            raise InitialGuessOutsideDomain(
                f"Gauss-Newton mean {mean.tolist()} is not finite at the "
                f"initial guess x0 = {ev.x.tolist()}"
            )
        if state.log_post == -np.inf:
            raise InitialGuessOutsideDomain(
                f"target density is 0 at the initial guess x0 = {ev.x.tolist()}")
        self.prior, self.current = prior, state
        self.policy = BackoffPolicy.none()
        self.rng = np.random.default_rng(seed)
        self._set_chain(np.empty((0, self.dim)))
        self.burned = 0
        self.call_count = 1  # the evaluation at x0
        self._step_count: Dict[int, int] = {-1: 0}
        self.warnings: Dict[str, int] = {"singular_proposals": 0}

    # -- configuration ------------------------------------------------

    def set_static(self, max_steps: int, factor: float, alpha: int = 2) -> None:
        """Back off up to ``max_steps`` times, dilating by ``factor`` each
        time, with the kernel mean moving as the scale to the power
        ``alpha``, 1 (the paper's kernel) or 2. ``max_steps=0`` disables
        back-off."""
        self.policy = BackoffPolicy.static(max_steps, factor, alpha)

    def set_dynamic(self, max_steps: int, alpha: int = 2) -> None:
        """Back off up to ``max_steps`` times with cubic-interpolation
        dilation factors and the mean exponent ``alpha``, as in
        :meth:`set_static`."""
        self.policy = BackoffPolicy.dynamic(max_steps, alpha)

    # -- outputs --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.model.dim_in

    @property
    def chain(self) -> np.ndarray:
        return self._buf[:self._n].copy()

    @property
    def n_samples(self) -> int:
        return self._n

    @property
    def n_accepted(self) -> int:
        """Transitions that accepted a candidate, burned ones included."""
        return self.n_samples + self.burned - self._step_count[-1]

    @property
    def accept_rate(self) -> float:
        # counters describe the whole run, including burned transitions
        attempts = self.n_samples + self.burned
        return self.n_accepted / attempts if attempts > 0 else 0.0

    @property
    def step_count(self) -> Dict[int, int]:
        """Transitions per stage that ended them, in stage order: -1 for a
        rejection, then every stage of the policy, zeros included, and any
        other stage that has ended a transition."""
        counts = dict.fromkeys(range(1, self.policy.n_stages + 1), 0)
        counts.update(self._step_count)
        return dict(sorted(counts.items()))

    def summary(self) -> dict:
        """The run's report, which ``gnmh sample`` writes to ``summary.json``
        after its ``example`` and ``seed``: the counters, which describe the
        whole run, and per coordinate the kept rows' autocorrelation time
        ``tau`` from :func:`diagnostics.acor` and effective sample size
        ``ess`` = ``n_samples`` / tau. Both are None for a coordinate that
        ``acor`` refuses (fewer than 500 rows, or no self-consistent window)
        and for one whose kept rows are all equal, which did not move."""
        taus = []
        for column in self._buf[:self._n].T:  # views: the chain is not copied
            try:
                moved = not (column == column[:1]).all()
                taus.append(diagnostics.acor(column).tau if moved else None)
            except GnmhError:
                taus.append(None)
        return {
            "n_samples": self.n_samples,
            "n_accepted": self.n_accepted,
            "burned": self.burned,
            "accept_rate": self.accept_rate,
            "call_count": self.call_count,
            "step_count": {str(k): v for k, v in self.step_count.items()},
            "tau": taus,
            "ess": [None if tau is None else self.n_samples / tau for tau in taus],
        }

    # -- sampling -------------------------------------------------------

    def run_sample(self, n_samples: int, divs: int = 1, visual: bool = False,
                   safe: Optional[Union[str, os.PathLike]] = None) -> None:
        """Append ``n_samples`` transitions to the chain.

        Successive calls continue the same chain. ``divs`` splits the work
        into near-equal divisions; after each one, progress is printed when
        ``visual`` and a checkpoint is written when ``safe`` names a path,
        so the last division's checkpoint holds the finished run. Divisions
        do not affect the sampled values. Both counts are integers (numpy's
        too, not bools) of at least 1, and ``divs`` is at most ``n_samples``;
        any other value raises ``ValueError`` before any transition runs.
        """
        check_count("n_samples", n_samples, 1)
        if check_count("divs", divs, 1) > n_samples:
            raise ValueError(f"divs {divs} is more than n_samples {n_samples}; "
                             f"each division must hold a transition")
        self._reserve(n_samples)
        step, policy, prior, model, rng = (kernel.step, self.policy, self.prior,
                                           self.model, self.rng)
        buf, counts, counters = self._buf, self._step_count, self.warnings
        base, rem = divmod(n_samples, divs)
        done = 0
        for i in range(divs):
            size = base + (1 if i < rem else 0)
            n, current = self._n, self.current
            end = n + size
            calls = model.call_count
            try:
                while n < end:
                    nxt, stage = step(current, policy, prior, model, rng, counters)
                    buf[n] = nxt.x
                    n += 1
                    # a rejecting step returns the current state
                    counts[stage] = counts.get(stage, 0) + 1
                    current = nxt
            finally:
                # the transitions before a step that raised are kept
                self._n, self.current = n, current
                self.call_count += model.call_count - calls
            done += size
            if visual:
                print(f"{100.0 * done / n_samples:.1f}% complete", flush=True)
            if safe is not None:
                self.save_checkpoint(safe)

    def burn(self, n_burned: int) -> None:
        """Discard the first ``n_burned`` chain rows. Counters are not
        rewound; they describe the whole run. ``BurnTooLarge`` refuses an
        ``n_burned`` that is not an integer (numpy's are, bools are not) or
        is not in ``[0, n_samples]``."""
        if check_count("n_burned", n_burned, 0, BurnTooLarge) > self.n_samples:
            raise BurnTooLarge(f"cannot burn {n_burned} of {self.n_samples} samples")
        self._set_chain(self._buf[n_burned:self._n].copy())
        self.burned += n_burned

    # -- chain storage ------------------------------------------------------

    def _set_chain(self, rows: np.ndarray) -> None:
        """Make ``rows`` (owned by the sampler) the whole chain; the next
        save writes all of it."""
        self._buf = rows
        self._n = rows.shape[0]
        # the checkpoint file this sampler last saved or loaded
        self._written: Optional[_Written] = None

    def _reserve(self, extra: int) -> None:
        """Make room for ``extra`` more rows, at least doubling the buffer
        when it grows."""
        need = self._n + extra
        if need > self._buf.shape[0]:
            grown = np.empty((max(need, 2 * self._buf.shape[0]), self.dim))
            grown[:self._n] = self._buf[:self._n]
            self._buf = grown

    # -- checkpointing ----------------------------------------------------

    def _document(self, save: int, crc: int) -> bytes:
        """The state document's bytes, numbered ``save``, for a chain whose
        rows have the CRC-32 ``crc``."""
        policy, prior = self.policy, self.prior
        body = json.dumps({
            "format_version": _CHECKPOINT_VERSION,
            "save": save,
            "chain_rows": self._n,
            "chain_crc": "%08x" % crc,
            "counters": {
                "call_count": self.call_count,
                "burned": int(self.burned),
            },
            "step_count": {str(k): v for k, v in self.step_count.items()},
            "warnings": dict(self.warnings),
            "policy": {
                "mode": policy.mode,
                "max_steps": int(policy.max_steps),
                "factor": float(policy.factor),
                "alpha": int(policy.alpha),
            },
            "prior": {
                "mean": prior.mean.tolist(),
                "precision": prior.precision.ravel().tolist(),
            },
            "current_x": self.current.x.tolist(),
            "rng": self.rng.bit_generator.state,
        }, separators=(",", ":")).encode("utf-8")
        return body[:-1] + _checksum_field(zlib.crc32(body))

    def save_checkpoint(self, path: Union[str, os.PathLike]) -> None:
        """Write the full sampler state atomically and durably, as one file
        at ``path``.

        When the file's header and both slots are the bytes this sampler
        last wrote or loaded, and the new document fits a slot, the save
        appends: the rows added since then go after the rows of the newest
        slot, the file is cut after them, the document goes into the older
        slot, and the file is fsynced. Otherwise (the first save to
        ``path``, the first after :meth:`burn`, a file another run wrote,
        or a document longer than a slot) the whole file, its document in
        slot 0 and slots twice that document's length, goes to a temp file,
        fsynced and renamed over ``path``, then the directory is fsynced. A
        save stopped at any point leaves the previous checkpoint or the new
        one.

        A document is numbered 0 in a whole file and one more than the
        newest slot's number in an append, so the file's bytes depend only
        on the sampler's state and that number.
        """
        path = os.fspath(path)
        last = self._written
        try:
            try:
                fd = -1 if last is None else os.open(path, os.O_RDWR)
            except FileNotFoundError:
                fd = -1
            if fd >= 0:
                try:
                    rows = _raw_rows(self._buf[last.rows:self._n])
                    save, crc = last.save + 1, zlib.crc32(rows, last.crc)
                    doc = self._document(save, crc)
                    size = (len(last.head) - _HEADER.size) // 2
                    if len(doc) <= size and os.pread(fd, len(last.head), 0) == last.head:
                        # neither write touches the newest slot or its rows
                        end = _write(fd, rows, len(last.head) + 8 * self.dim * last.rows)
                        os.ftruncate(fd, end)
                        at = _HEADER.size + save % 2 * size
                        doc = doc.ljust(size, b"\0")
                        _write(fd, doc, at)
                        os.fsync(fd)
                        head = last.head[:at] + doc + last.head[at + size:]
                        self._written = _Written(head, save, self._n, crc)
                        return
                finally:
                    os.close(fd)
            rows = _raw_rows(self._buf[:self._n])
            crc = zlib.crc32(rows)
            doc = self._document(0, crc)
            size = 2 * len(doc)
            head = _HEADER.pack(_MAGIC, _CHECKPOINT_VERSION, size) + doc.ljust(2 * size, b"\0")
            tmp = path + ".tmp"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                _write(fd, rows, _write(fd, head, 0))
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
            fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            self._written = _Written(head, 0, self._n, crc)
        except OSError as exc:
            raise CheckpointWriteFailure(f"could not write checkpoint: {exc}") from exc

    @classmethod
    def load_checkpoint(cls, path: Union[str, os.PathLike],
                        model: ModelHandle) -> "Sampler":
        """Rebuild a sampler from the checkpoint file at ``path``.

        The file is read once. The slot with the higher save number is
        tried first, and the other only when it fails: when its text does
        not match its CRC-32, or its first ``chain_rows`` rows are missing
        or do not match its ``chain_crc``, as a stopped save can leave a
        slot. Rows after them are ignored. When neither slot passes, the
        load raises ``CorruptCheckpoint``; so any changed byte of the state
        it would load is refused, including a re-formatted document that
        holds the same values. The next save to ``path`` appends to it.

        A slot whose text matches its CRC-32 but whose fields no sampler
        can have is refused, not skipped: another format version, named by
        its number (this release reads only version 5, so checkpoints of
        versions 1 to 4 do not load, nor a file without the header), a
        negative counter or one that is not a JSON integer, a save number
        not in its slot, a string or boolean where a number belongs, a
        stage key of 0, warning counters other than exactly
        ``singular_proposals`` or a malformed generator state.

        The sampler is built by the constructor at the stored current point
        and prior, so that point must pass the constructor's checks
        (``InitialGuessOutsideDomain``, ``SingularProposal``). The
        constructor's model call is not added to the restored call count,
        so a resumed run reports the same totals as an uninterrupted one.
        """
        path = os.fspath(path)
        try:
            with open(path, "rb") as fh:
                length = os.fstat(fh.fileno()).st_size
                head = fh.read(_HEADER.size)
                magic, version, size = _HEADER.unpack(head.ljust(_HEADER.size, b"\0"))
                # the slots, or the whole of a file without the magic
                head += fh.read(min(2 * size, length) if magic == _MAGIC else -1)
                # the rows in a buffer of their own; np.empty, unlike
                # bytearray, does not zero the bytes that readinto overwrites
                data = np.empty(max(0, length - len(head)), np.uint8)
                data = data[:fh.readinto(data)]
        except OSError as exc:
            raise IOFailure(f"could not read checkpoint: {exc}") from exc
        if magic != _MAGIC:
            # JSON, such as an older version's document, is refused by its version
            _parse(head)
            raise CorruptCheckpoint("checkpoint has no header")
        _check_version(version)
        slots = [head[_HEADER.size + i * size:_HEADER.size + (i + 1) * size] for i in (0, 1)]
        saves = [int(m[1]) if m else -1 for m in map(_SAVE.search, slots)]
        for i in sorted((0, 1), key=saves.__getitem__, reverse=True):
            doc = _read_document(slots[i])
            if doc is None:
                continue
            try:
                save = check_count("save", doc["save"])
                if save % 2 != i:
                    raise ValueError(f"save {save} is not in slot {save % 2}")
                n_rows = check_count("chain_rows", doc["chain_rows"])
                crc = int(doc["chain_crc"], 16)
                counters = doc["counters"]
                call_count = check_count("call_count", counters["call_count"])
                burned = check_count("burned", counters["burned"])
                step_count = {int(k): check_count(f"step {k}", v)
                              for k, v in doc["step_count"].items()}
                warnings = {str(k): check_count(k, v) for k, v in doc["warnings"].items()}
                if warnings.keys() != {"singular_proposals"}:
                    raise ValueError(f"warning counters {sorted(warnings)} are not "
                                     f"['singular_proposals']")
                # -1 counts the rejections, and the stages are numbered from 1
                if min(step_count, default=0) != -1 or 0 in step_count:
                    raise ValueError(f"step count stages {sorted(step_count)} are not "
                                     f"-1, 1, 2, ...")
                if sum(step_count.values()) != n_rows + burned:
                    raise ValueError("step counts disagree with the counters")
                pol = doc["policy"]
                policy = BackoffPolicy(pol["mode"], pol["max_steps"], pol["factor"],
                                       pol["alpha"])
                current_x = _numbers("current_x", doc["current_x"])
                dim = current_x.size
                prior = GaussianPrior(
                    _numbers("prior mean", doc["prior"]["mean"]),
                    _numbers("prior precision", doc["prior"]["precision"]).reshape(dim, dim),
                )
                # numpy refuses another generator's name and words out of range
                bit_gen = np.random.PCG64()
                bit_gen.state = doc["rng"]
            # GnmhError: a value the validators refuse, such as an invalid policy
            except (AttributeError, LookupError, TypeError, ValueError, OverflowError,
                    GnmhError) as exc:
                raise CorruptCheckpoint(f"malformed checkpoint field: {exc}") from exc
            rows = data[:8 * dim * n_rows]
            # a file cut before the end of the slots holds no rows either
            if (len(head) == _HEADER.size + 2 * size and rows.size == 8 * dim * n_rows
                    and zlib.crc32(rows) == crc):
                break
        else:
            raise CorruptCheckpoint("checksum mismatch: no slot holds a document and "
                                    "chain rows that match their CRC-32s")

        if model.dim_in != dim:
            raise DimensionMismatch(
                f"checkpoint dimension {dim}, model expects {model.dim_in}"
            )

        # default_rng returns a Generator as it is, so the constructor seeds
        # no generator of its own from OS entropy
        sampler = cls(current_x, model, seed=np.random.Generator(bit_gen), prior=prior)
        sampler.policy = policy
        sampler._set_chain(rows.view("<f8").reshape(n_rows, dim))
        sampler._written = _Written(head, save, n_rows, crc)
        sampler.burned = burned
        sampler._step_count = step_count
        sampler.warnings = warnings
        sampler.call_count = call_count
        return sampler
