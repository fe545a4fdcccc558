"""Chain orchestration: initialization, prior and back-off configuration,
sampling in divisions with optional checkpointing, burn-in, and counters.

The chain is one growing float64 array. A checkpoint is two files:

- the state document at the checkpoint path: compact JSON from ``json``,
  numbers in shortest round-trip form, with a CRC-32 checksum over its own
  text (the document without its checksum field). It holds every fact but
  the chain rows, each once, so a resumed run continues bit-identically; it
  names the chain file, its row count and the rows' CRC-32;
- the chain file beside it, the document's path plus ``.chain`` or
  ``.chain-b``: the rows as raw little-endian float64, append-only.

A save appends the rows added since the last save to the chain file and
fsyncs it, then replaces the document through a temp file, fsynced and
renamed, and fsyncs the directory. A save that must write the whole chain
writes it to the chain file the current document does not name, so the
previous checkpoint stays loadable until the new document replaces it.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, NamedTuple, Optional, Union

import numpy as np

from . import kernel
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
from .model import ModelEval, ModelHandle
from .posterior import GaussianPrior, log_posterior, point_state_from_eval

_CHECKPOINT_VERSION = 3
_CHECKSUM_KEY = b',"checksum":'
# the two chain file names, as suffixes of the document's path
_CHAIN_SUFFIXES = (".chain", ".chain-b")


def _checksum_field(crc: int) -> bytes:
    """The checksum field and the end of the file, for the CRC-32 ``crc`` of
    the document text without that field."""
    return _CHECKSUM_KEY + b'"%08x"}\n' % crc


class _ChainFile(NamedTuple):
    """The chain file a state document names: the suffix that makes its
    name from the document's, and the CRC-32 of its first ``rows`` rows of
    ``dim`` numbers."""

    dim: int
    suffix: str
    rows: int
    crc: int


def _read_document(path: str) -> dict:
    """The parsed state document at ``path``. ``CorruptCheckpoint`` refuses
    text that is not JSON, another format version, named by its number, and
    a CRC-32 that does not match the file's bytes; ``OSError`` is raised
    when the file cannot be read."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptCheckpoint(f"checkpoint is not valid JSON: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != _CHECKPOINT_VERSION:
        raise CorruptCheckpoint(f"checkpoint format version {version} is not "
                                f"supported; this release reads version "
                                f"{_CHECKPOINT_VERSION}")
    # the CRC of the text before the checksum field, closed with "}"
    end = data.rfind(_CHECKSUM_KEY)
    if end < 0:
        raise CorruptCheckpoint("checkpoint has no checksum")
    if data[end:] != _checksum_field(zlib.crc32(b"}", zlib.crc32(memoryview(data)[:end]))):
        raise CorruptCheckpoint("checksum mismatch")
    return doc


def _numbers(name: str, values) -> np.ndarray:
    """The list of JSON numbers ``values`` read from a state document, as a
    float array: ``ValueError`` refuses anything else, such as a string or a
    boolean, which numpy would convert."""
    if type(values) is not list or not all(type(v) in (int, float) for v in values):
        raise ValueError(f"{name} {values!r} is not a list of numbers")
    return np.array(values, dtype=float)


def _chain_file(doc: dict) -> _ChainFile:
    """The chain file ``doc`` names, of rows as long as its current point."""
    return _ChainFile(len(doc["current_x"]), doc["chain_file"],
                      check_count("chain_rows", doc["chain_rows"]), int(doc["chain_crc"], 16))


def _raw_rows(rows: np.ndarray) -> memoryview:
    """The bytes of ``rows`` as little-endian float64, row after row."""
    return memoryview(np.ascontiguousarray(rows, dtype="<f8").reshape(-1).view(np.uint8))


def _write_synced(path: str, data, offset: int, create: bool) -> None:
    """Write the bytes ``data`` at ``offset`` in the file at ``path``, cut
    the file after them and fsync it."""
    fd = os.open(path, os.O_WRONLY | (os.O_CREAT if create else 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            written = os.pwrite(fd, view, offset)
            view, offset = view[written:], offset + written
        os.ftruncate(fd, offset)
        os.fsync(fd)
    finally:
        os.close(fd)


def _replace_synced(path: str, data: bytes) -> None:
    """Replace the file at ``path`` by ``data`` atomically and durably: a
    temp file, fsynced, renamed over ``path``, then the directory fsynced."""
    tmp = path + ".tmp"
    _write_synced(tmp, data, 0, create=True)
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _read_chain(path: str, chain: _ChainFile) -> np.ndarray:
    """The first ``chain.rows`` rows of the chain file at ``path``, checked
    against ``chain.crc``. Bytes after them, left by a save that stopped
    between its append and its document replace, are not read."""
    size = chain.rows * chain.dim * 8
    try:
        with open(path, "rb") as fh:
            # a file too short for the rows allocates nothing; np.empty, unlike
            # bytearray, does not zero the bytes that readinto overwrites
            buf = np.empty(size if os.fstat(fh.fileno()).st_size >= size else 0, np.uint8)
            got = fh.readinto(buf)
    except FileNotFoundError as exc:
        raise CorruptCheckpoint(f"chain file {path} is missing") from exc
    except OSError as exc:
        raise IOFailure(f"could not read chain file: {exc}") from exc
    if got < size:
        raise CorruptCheckpoint(f"chain file {path} holds fewer than the "
                                f"checkpoint's {chain.rows} rows")
    if zlib.crc32(buf) != chain.crc:
        raise CorruptCheckpoint(f"chain file {path}: checksum mismatch")
    return buf.view("<f8").reshape(chain.rows, chain.dim)


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
        Defaults to flat (zero precision about ``x0``). A model with fewer
        residuals than parameters needs an informative prior here, since
        the flat-prior proposal precision J'J is rank deficient.

    The back-off policy defaults to none; see :meth:`set_prior`,
    :meth:`set_static`, :meth:`set_dynamic`, or assign a ``BackoffPolicy``
    to ``policy``.

    Raises
    ------
    InitialGuessOutsideDomain
        If ``x0`` has a NaN or infinite entry (before any model call), the
        model indicator is 0 at ``x0``, or the Gauss-Newton mean there is
        not finite (the residual has an infinite entry, or the prior term
        H(m - x0) overflows).
    SingularProposal
        If the Gauss-Newton proposal cannot be built at ``x0`` under the
        (possibly flat) prior.
    """

    def __init__(self, x0, model: ModelHandle, seed: Optional[int] = None,
                 prior: Optional[GaussianPrior] = None):
        self.model = model
        # call_count is the handle's count plus this offset
        self._call_offset = -model.call_count
        x0 = np.array(x0, dtype=float).reshape(-1)
        check_finite(f"initial guess x0 = {x0.tolist()}", x0, InitialGuessOutsideDomain)
        self._set_state(prior, x0)
        self.policy = BackoffPolicy.none()
        self.rng = np.random.default_rng(seed)
        self._set_chain(np.empty((0, self.dim)))
        self.burned = 0
        self._step_count: Dict[int, int] = {-1: 0}
        self.warnings: Dict[str, int] = {"singular_proposals": 0}

    # -- configuration ------------------------------------------------

    def set_prior(self, mean, precision) -> None:
        """Replace the prior and refresh the cached state at the current
        point (no model call is spent)."""
        self._set_state(GaussianPrior.create(mean, precision), self.current)

    def _set_state(self, prior: Optional[GaussianPrior], point) -> None:
        """Make ``prior`` (flat about the point when None) the prior and
        ``point`` the current point: either its ``ModelEval``, or a point at
        which the model is called. The prior's dimension is checked before
        any model call, and every check before the assignment, so a refused
        prior or point leaves the sampler as it was."""
        if prior is not None and prior.dim != self.model.dim_in:
            raise DimensionMismatch(
                f"prior dimension {prior.dim}, model expects {self.model.dim_in}"
            )
        ev = point if isinstance(point, ModelEval) else self.model.evaluate(point)
        if not ev.inside:
            raise InitialGuessOutsideDomain("model indicator is 0 at the initial guess")
        if prior is None:
            prior = GaussianPrior.flat(ev.x)
        # the build judges an overflow itself, under any warning filter; this
        # keeps numpy's own text off stderr (once per start, not per transition)
        with np.errstate(over="ignore", invalid="ignore"):
            state = point_state_from_eval(prior, ev)
            if state.chol is None:
                raise SingularProposal(
                    f"Gauss-Newton proposal undefined at x = {ev.x.tolist()} under this prior"
                )
            # only a zero-density point keeps a proposal whose mean, x + L^-T v,
            # may not be finite; no draw from it would be finite either
            mean = state.x + _solve_lower(state.chol, state.v, trans=1)
        if not np.isfinite(mean).all():
            raise InitialGuessOutsideDomain(
                f"Gauss-Newton mean {mean.tolist()} is not finite at the "
                f"initial guess x0 = {ev.x.tolist()}"
            )
        self.prior, self.current = prior, state

    def set_static(self, max_steps: int, factor: float) -> None:
        """Back off up to ``max_steps`` times, dilating by ``factor`` each
        time. ``max_steps=0`` disables back-off."""
        self.policy = BackoffPolicy.static(max_steps, factor)

    def set_dynamic(self, max_steps: int) -> None:
        """Back off up to ``max_steps`` times with cubic-interpolation
        dilation factors."""
        self.policy = BackoffPolicy.dynamic(max_steps)

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
    def call_count(self) -> int:
        return self.model.call_count + self._call_offset

    @property
    def step_count(self) -> Dict[int, int]:
        """Transitions per stage that ended them, in stage order: -1 for a
        rejection, then every stage of the policy, zeros included, and any
        other stage that has ended a transition."""
        counts = dict.fromkeys(range(1, self.policy.n_stages + 1), 0)
        counts.update(self._step_count)
        return dict(sorted(counts.items()))

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

    def posterior_at(self, x) -> float:
        """Unnormalized posterior density at ``x`` (one fresh model call).
        Returns 0 outside the domain or for an infinite residual.

        Raises
        ------
        UserFunctionFailure
            If the residual at ``x`` is NaN.
        """
        return float(np.exp(log_posterior(self.prior, self.model.evaluate(x))))

    # -- chain storage ------------------------------------------------------

    def _set_chain(self, rows: np.ndarray) -> None:
        """Make ``rows`` (owned by the sampler) the whole chain; the next
        save writes all of it."""
        self._buf = rows
        self._n = rows.shape[0]
        # the chain file of the document this sampler last saved or loaded;
        # its rows are the first rows of this chain
        self._on_disk: Optional[_ChainFile] = None

    def _reserve(self, extra: int) -> None:
        """Make room for ``extra`` more rows, at least doubling the buffer
        when it grows."""
        need = self._n + extra
        if need > self._buf.shape[0]:
            grown = np.empty((max(need, 2 * self._buf.shape[0]), self.dim))
            grown[:self._n] = self._buf[:self._n]
            self._buf = grown

    # -- checkpointing ----------------------------------------------------

    def _document(self, chain: _ChainFile) -> bytes:
        """The state document's bytes, naming ``chain`` as its chain file."""
        policy, prior = self.policy, self.prior
        body = json.dumps({
            "format_version": _CHECKPOINT_VERSION,
            "chain_file": chain.suffix,
            "chain_rows": chain.rows,
            "chain_crc": "%08x" % chain.crc,
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
                "t_lo": float(policy.t_lo),
                "t_hi": float(policy.t_hi),
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
        """Write the full sampler state atomically and durably.

        The state document goes to ``path``, and the chain rows to a chain
        file beside it (``path`` plus ``.chain`` or ``.chain-b``) that the
        document names. When the document at ``path`` is the one this
        sampler last saved or loaded, the save appends the rows added since
        then at the end of their chain file, cutting off anything a stopped
        save left after them, and fsyncs it. Otherwise (the first save to
        ``path``, or the first after :meth:`burn`) it writes the whole chain
        to the chain file that the document at ``path`` does not name. Then
        the document is replaced: a temp file, fsynced, renamed over
        ``path``, then the directory fsynced. Only after that is the other
        chain file removed, so a save stopped at any point leaves the
        previous checkpoint or the new one.

        The document's bytes depend only on the sampler's state and on
        which chain file it names.
        """
        path = os.fspath(path)
        try:
            try:
                named = _chain_file(_read_document(path))
            except (FileNotFoundError, CorruptCheckpoint, LookupError, TypeError, ValueError):
                named = None  # no readable document of this version names a chain file
            start = self._on_disk
            if start is None or named != start:
                # whole chain, to the file the document at ``path`` does not name
                other = named is not None and named.suffix == _CHAIN_SUFFIXES[0]
                start = _ChainFile(self.dim, _CHAIN_SUFFIXES[other], 0, 0)
            rows = _raw_rows(self._buf[start.rows:self._n])
            saved = start._replace(rows=self._n, crc=zlib.crc32(rows, start.crc))
            # an empty chain still gets its chain file; an append of no
            # rows leaves the file alone
            if start.rows == 0 or rows:
                _write_synced(path + saved.suffix, rows, start.rows * self.dim * 8,
                              create=start.rows == 0)
            _replace_synced(path, self._document(saved))
            self._on_disk = saved
            stale = path + _CHAIN_SUFFIXES[saved.suffix == _CHAIN_SUFFIXES[0]]
            if os.path.exists(stale):
                os.remove(stale)
        except OSError as exc:
            raise CheckpointWriteFailure(f"could not write checkpoint: {exc}") from exc

    @classmethod
    def load_checkpoint(cls, path: Union[str, os.PathLike],
                        model: ModelHandle) -> "Sampler":
        """Rebuild a sampler from a checkpoint: the state document at
        ``path`` and the chain file it names.

        The document's CRC-32 is checked on its own bytes, so any changed
        byte is refused with ``CorruptCheckpoint``, including a re-formatted
        document that holds the same values. A document of another format
        version is refused, naming its version; this release reads only
        version 3, so checkpoints of versions 1 and 2 do not load. So is a
        document whose fields no sampler can have, such as a negative
        counter or one that is not a JSON integer, a string or boolean where
        a number belongs, a stage key of 0,
        warning counters other than exactly ``singular_proposals`` or a
        malformed generator state. Exactly the document's ``chain_rows``
        rows are read from the chain file and checked against its
        ``chain_crc``; a missing or short chain file is refused, and bytes
        after those rows are ignored. The next save to ``path`` appends to
        that chain file.

        The sampler is built by the constructor at the stored current point
        and prior, so that point must pass the constructor's checks
        (``InitialGuessOutsideDomain``, ``SingularProposal``). The
        constructor's model call is not added to the restored call count,
        so a resumed run reports the same totals as an uninterrupted one.
        """
        path = os.fspath(path)
        try:
            doc = _read_document(path)
        except OSError as exc:
            raise IOFailure(f"could not read checkpoint: {exc}") from exc
        try:
            chain_file = _chain_file(doc)
            counters = doc["counters"]
            call_count = check_count("call_count", counters["call_count"])
            burned = check_count("burned", counters["burned"])
            step_count = {int(k): check_count(f"step {k}", v) for k, v in doc["step_count"].items()}
            warnings = {str(k): check_count(k, v) for k, v in doc["warnings"].items()}
            if warnings.keys() != {"singular_proposals"}:
                raise ValueError(f"warning counters {sorted(warnings)} are not "
                                 f"['singular_proposals']")
            # -1 counts the rejections, and the stages are numbered from 1
            if min(step_count, default=0) != -1 or 0 in step_count:
                raise ValueError(f"step count stages {sorted(step_count)} are not -1, 1, 2, ...")
            if sum(step_count.values()) != chain_file.rows + burned:
                raise ValueError("step counts disagree with the counters")
            pol = doc["policy"]
            factor, t_lo, t_hi = _numbers("policy factor and clamp",
                                          [pol["factor"], pol["t_lo"], pol["t_hi"]]).tolist()
            policy = BackoffPolicy(mode=pol["mode"], max_steps=pol["max_steps"], factor=factor)
            clamp = (t_lo, t_hi)
            dim = chain_file.dim
            prior = GaussianPrior.create(
                _numbers("prior mean", doc["prior"]["mean"]),
                _numbers("prior precision", doc["prior"]["precision"]).reshape(dim, dim),
            )
            current_x = _numbers("current_x", doc["current_x"])
            # numpy refuses another generator's name and words out of range
            bit_gen = np.random.PCG64()
            bit_gen.state = doc["rng"]
        # GnmhError: a value the validators refuse, such as an invalid policy
        except (AttributeError, LookupError, TypeError, ValueError, OverflowError, GnmhError) as exc:
            raise CorruptCheckpoint(f"malformed checkpoint field: {exc}") from exc
        if clamp != (BackoffPolicy.t_lo, BackoffPolicy.t_hi):
            raise CorruptCheckpoint(f"dynamic clamp bounds {clamp} are not "
                                    f"({BackoffPolicy.t_lo}, {BackoffPolicy.t_hi})")
        if chain_file.suffix not in _CHAIN_SUFFIXES:
            raise CorruptCheckpoint(f"unknown chain file {chain_file.suffix!r}")

        if model.dim_in != dim:
            raise DimensionMismatch(
                f"checkpoint dimension {dim}, model expects {model.dim_in}"
            )
        chain = _read_chain(path + chain_file.suffix, chain_file)

        # default_rng returns a Generator as it is, so the constructor seeds
        # no generator of its own from OS entropy
        sampler = cls(current_x, model, seed=np.random.Generator(bit_gen), prior=prior)
        sampler.policy = policy
        sampler._set_chain(chain)
        sampler._on_disk = chain_file
        sampler.burned = burned
        sampler._step_count = step_count
        sampler.warnings = warnings
        # the reload evaluation recomputes a cached value; keep the counters
        # identical to an uninterrupted run
        sampler._call_offset = call_count - model.call_count
        return sampler
