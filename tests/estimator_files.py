"""Hand-built estimator files in the save_estimator layout, valid or corrupt."""

import struct

import numpy as np

from scorekit.estimators import _MAGIC


def pack(fam=0, kind=1, bw=1.0, code=1, params=(0.1,), offset=-10.0, M=3, d=2,
         N=None, flags=0, samples=None, idx=None, coeffs=None) -> bytes:
    """One estimator file; every field defaults to a valid Tikhonov fit."""
    N = M if N is None else N
    samples = np.arange(M * d, dtype=float) / 7 if samples is None else samples
    coeffs = np.linspace(-1.0, 1.0, N * d) if coeffs is None else coeffs
    out = _MAGIC + struct.pack("<BBd", fam, kind, bw)
    out += struct.pack("<BB", code, len(params)) + np.asarray(params, "<f8").tobytes()
    out += struct.pack("<dIIIQ", offset, M, d, N, flags)
    out += np.asarray(samples, "<f8").tobytes()
    if idx is not None:
        out += np.asarray(idx, "<u4").tobytes()
    return out + np.asarray(coeffs, "<f8").tobytes()


# (name, file bytes): each must be refused with InputError
CORRUPT = [
    ("truncated file", pack()[:7]),
    ("bad magic", b"XKESTv1" + pack()[7:]),
    ("trailing bytes", pack() + b"\0"),
    ("unknown scheme code", pack(code=9)),
    ("code 1 with two params", pack(code=1, params=(0.1, 2.0))),
    ("code 4 with one param", pack(code=4, params=(0.1,))),
    ("non-integer iteration count", pack(code=5, params=(1.0, 2.5))),
    # -1 stands for a spectral cut-off's missing lam or rank, not for both
    ("spectral cut-off without lam or rank", pack(code=3, params=(-1.0, -1.0), offset=0.0)),
    ("N > M with subset", pack(M=3, N=4, flags=1, idx=[0, 1, 2, 3])),
    ("N > M without subset", pack(M=3, N=4)),
    ("N != M without subset", pack(M=3, N=2)),
    ("N = 0", pack(M=3, N=0, flags=1, idx=[])),
    ("subset index out of range", pack(code=2, offset=0.0, M=3, N=2, flags=1, idx=[0, 3])),
    ("duplicate subset index", pack(code=2, offset=0.0, M=3, N=2, flags=1, idx=[1, 1])),
    ("unknown flag bit", pack(flags=2)),
    ("high flag bit", pack(flags=1 << 63)),
    ("nan sample", pack(samples=[0.0, 1.0, np.nan, 2.0, 3.0, 4.0])),
    ("inf param", pack(params=(np.inf,))),
    ("nan offset", pack(offset=np.nan)),
    ("inf coefficient", pack(coeffs=[0.0, 1.0, 2.0, -np.inf, 4.0, 5.0])),
    # an offset the scheme does not define: Tikhonov a = -1/lam, truncated
    # Tikhonov, spectral cut-off and subset fits a = 0, Landweber a = -t eta,
    # nu-method a_t = -2t(t + 2nu)/(4nu + 1)
    ("tikhonov offset", pack(code=1, params=(0.1,), offset=12345.0)),
    ("truncated tikhonov offset", pack(code=2, params=(0.1,), offset=3.1e-5)),
    ("spectral cut-off offset", pack(code=3, params=(0.1, -1.0), offset=-1.0)),
    ("subset fit offset", pack(code=2, params=(0.1,), offset=-10.0, M=3, N=2,
                               flags=1, idx=[2, 0])),
    ("landweber offset", pack(code=4, params=(0.5, 3.0), offset=12345.0)),
    ("nu-method offset", pack(code=5, params=(1.0, 3.0), offset=12345.0)),
    ("nu-method offset of another t", pack(code=5, params=(1.0, 3.0), offset=-3.2)),
    # a subset basis carries no zeta term, so a scheme that defines one is
    # refused with its own offset
    ("tikhonov subset", pack(M=3, N=2, flags=1, idx=[2, 0])),
    ("landweber subset", pack(code=4, params=(0.5, 3.0), offset=-1.5, M=3, N=2,
                              flags=1, idx=[2, 0])),
    ("nu-method subset", pack(code=5, params=(1.0, 3.0), offset=-6.0, M=3, N=2,
                              flags=1, idx=[2, 0])),
]
