"""Seeded generator for a CSV shaped like NSL-KDD's KDDTrain+ file.

The table has the real file's size and layout: 125,973 rows, 41 feature
columns (38 numeric, plus protocol_type/service/flag with 3/70/11 levels, so
one-hot encoding yields 122 features), a `class` column holding `normal` or
one of 22 attack names in the real proportions, and an ignored `difficulty`
column. It matches `configs/nsl-kdd.schema.json`.

The class geometry (cluster centres, spreads, category preferences) is fixed
by a constant, so every seed poses a problem of the same difficulty; the seed
draws the rows and their order. The same seed always yields the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# KDDTrain+ class mix: normal plus 22 attack names, 125,973 rows in total.
CLASS_COUNTS = {
    "normal": 67343,
    "neptune": 41214,
    "satan": 3633,
    "ipsweep": 3599,
    "portsweep": 2931,
    "smurf": 2646,
    "nmap": 1493,
    "back": 956,
    "teardrop": 892,
    "warezclient": 890,
    "pod": 201,
    "guess_passwd": 53,
    "buffer_overflow": 30,
    "warezmaster": 20,
    "land": 18,
    "imap": 11,
    "rootkit": 10,
    "loadmodule": 9,
    "ftp_write": 8,
    "multihop": 7,
    "phf": 4,
    "perl": 3,
    "spy": 2,
}
N_ROWS = sum(CLASS_COUNTS.values())

PROTOCOLS = ("icmp", "tcp", "udp")
SERVICES = (
    "IRC", "X11", "Z39_50", "aol", "auth", "bgp", "courier", "csnet_ns", "ctf", "daytime",
    "discard", "domain", "domain_u", "echo", "eco_i", "ecr_i", "efs", "exec", "finger", "ftp",
    "ftp_data", "gopher", "harvest", "hostnames", "http", "http_2784", "http_443", "http_8001",
    "imap4", "iso_tsap", "klogin", "kshell", "ldap", "link", "login", "mtp", "name",
    "netbios_dgm", "netbios_ns", "netbios_ssn", "netstat", "nnsp", "nntp", "ntp_u", "other",
    "pm_dump", "pop_2", "pop_3", "printer", "private", "red_i", "remote_job", "rje", "shell",
    "smtp", "sql_net", "ssh", "sunrpc", "supdup", "systat", "telnet", "tftp_u", "tim_i", "time",
    "urh_i", "urp_i", "uucp", "uucp_path", "vmnet", "whois",
)
FLAGS = ("OTH", "REJ", "RSTO", "RSTOS0", "RSTR", "S0", "S1", "S2", "S3", "SF", "SH")

# (column, kind): a tuple of levels for categoricals; for numerics "bytes",
# "flag" (0/1), "zero" (constant 0), "rate" (two decimals in [0, 1]) or an
# integer maximum.
COLUMNS: tuple[tuple[str, object], ...] = (
    ("duration", 58329),
    ("protocol_type", PROTOCOLS),
    ("service", SERVICES),
    ("flag", FLAGS),
    ("src_bytes", "bytes"),
    ("dst_bytes", "bytes"),
    ("land", "flag"),
    ("wrong_fragment", 3),
    ("urgent", 3),
    ("hot", 77),
    ("num_failed_logins", 4),
    ("logged_in", "flag"),
    ("num_compromised", 7479),
    ("root_shell", "flag"),
    ("su_attempted", 2),
    ("num_root", 7468),
    ("num_file_creations", 43),
    ("num_shells", 2),
    ("num_access_files", 9),
    ("num_outbound_cmds", "zero"),
    ("is_host_login", "flag"),
    ("is_guest_login", "flag"),
    ("count", 511),
    ("srv_count", 511),
    ("serror_rate", "rate"),
    ("srv_serror_rate", "rate"),
    ("rerror_rate", "rate"),
    ("srv_rerror_rate", "rate"),
    ("same_srv_rate", "rate"),
    ("diff_srv_rate", "rate"),
    ("srv_diff_host_rate", "rate"),
    ("dst_host_count", 255),
    ("dst_host_srv_count", 255),
    ("dst_host_same_srv_rate", "rate"),
    ("dst_host_diff_srv_rate", "rate"),
    ("dst_host_same_src_port_rate", "rate"),
    ("dst_host_srv_diff_host_rate", "rate"),
    ("dst_host_serror_rate", "rate"),
    ("dst_host_srv_serror_rate", "rate"),
    ("dst_host_rerror_rate", "rate"),
    ("dst_host_srv_rerror_rate", "rate"),
)
HEADER = tuple(name for name, _ in COLUMNS) + ("class", "difficulty")
N_NUMERIC = sum(1 for _, kind in COLUMNS if not isinstance(kind, tuple))
ENCODED_FEATURES = N_NUMERIC + sum(len(kind) for _, kind in COLUMNS if isinstance(kind, tuple))

GEOMETRY_SEED = 20091  # fixes the class geometry; the workload seed only draws rows
NORMAL_MODES = 3
_RATE_TEXT = np.array([f"{k / 100:.2f}" for k in range(101)])
_FLAG_TEXT = np.array(["0", "1"])


def _geometry(n_latent: int) -> dict:
    """Class-conditional latent centres, spreads and category preferences."""
    rng = np.random.default_rng(GEOMETRY_SEED)
    names = list(CLASS_COUNTS)
    modes = {"normal": 0.15 + 0.2 * rng.random((NORMAL_MODES, n_latent))}
    for name in names[1:]:
        modes[name] = rng.random((1, n_latent))
    spreads = {name: 0.03 + 0.05 * rng.random() for name in names}
    prefs = {}
    for name in names:
        prefs[name] = []
        for _, kind in COLUMNS:
            if isinstance(kind, tuple):
                p = rng.dirichlet(np.full(len(kind), 0.3))
                prefs[name].append(0.95 * p + 0.05 / len(kind))
    return {"modes": modes, "spreads": spreads, "prefs": prefs}


def _numeric_text(latent: np.ndarray, kind: object) -> np.ndarray:
    if kind == "rate":
        return _RATE_TEXT[np.rint(latent * 100).astype(np.int64)]
    if kind == "flag":
        return _FLAG_TEXT[(latent > 0.5).astype(np.int64)]
    if kind == "zero":
        return np.full(latent.shape, "0")
    if kind == "bytes":
        values = np.rint(np.expm1(latent * np.log1p(1e6))).astype(np.int64)
    else:
        values = np.rint(latent * int(kind)).astype(np.int64)
    return values.astype(str)


def generate(seed: int, counts: dict[str, int] = CLASS_COUNTS) -> tuple[bytes, int, int]:
    """CSV bytes for `seed`, plus the row count and the one-hot encoded width.

    `counts` maps class names to row counts; the default is the real mix.
    Every category level occurs at least once, so the encoded width is
    fixed by the column layout.
    """
    rng = np.random.default_rng(seed)
    geometry = _geometry(N_NUMERIC)
    labels = np.repeat(np.array(list(counts)), list(counts.values()))
    n = labels.size
    rng.shuffle(labels)
    class_ids = {name: np.flatnonzero(labels == name) for name in counts}

    latent = np.empty((n, N_NUMERIC))
    categories = [np.empty(n, dtype=np.int64) for _, kind in COLUMNS if isinstance(kind, tuple)]
    for name, rows in class_ids.items():
        modes = geometry["modes"][name]
        centre = modes[rng.integers(0, modes.shape[0], size=rows.size)]
        noise = rng.standard_normal((rows.size, N_NUMERIC)) * geometry["spreads"][name]
        latent[rows] = np.clip(centre + noise, 0.0, 1.0)
        for column, p in zip(categories, geometry["prefs"][name]):
            column[rows] = rng.choice(p.size, size=rows.size, p=p)
    for column, (_, kind) in zip(categories, [c for c in COLUMNS if isinstance(c[1], tuple)]):
        column[: len(kind)] = np.arange(len(kind))  # every level present

    text = []
    numeric = iter(latent.T)
    cats = iter(categories)
    for _, kind in COLUMNS:
        if isinstance(kind, tuple):
            text.append(np.array(kind)[next(cats)])
        else:
            text.append(_numeric_text(next(numeric), kind))
    text.append(labels)
    text.append(rng.integers(0, 22, size=n).astype(str))
    lines = [",".join(HEADER)]
    lines.extend(map(",".join, zip(*(col.tolist() for col in text))))
    body = "\n".join(lines) + "\n"
    levels = sum(len(np.unique(c)) for c in categories)
    return body.encode("ascii"), n, N_NUMERIC + levels


def write_csv(path: Path, seed: int) -> None:
    """Write the full-size table and check its shape before anything is timed.

    Raises:
        ValueError: if the table does not have NSL-KDD's row count and
            encoded width.
    """
    data, n_rows, encoded = generate(seed)
    if n_rows != N_ROWS or data.count(b"\n") != N_ROWS + 1:
        raise ValueError(f"generated table has {n_rows} rows, expected {N_ROWS}")
    if encoded != ENCODED_FEATURES or ENCODED_FEATURES != 122:
        raise ValueError(f"generated table encodes to {encoded} features, expected 122")
    path.write_bytes(data)

