"""Golden trace content: the synthesised event streams themselves.

The prefix tests compare a prefix with the generator that fills it, and
both change together; these digests pin the events every benchmark
profile and workload mix actually replays.  Each covers the first
``3 * TRACE_CHUNK + 1`` events (three whole chunks and the first event of
the fourth) of a seed-1 trace, one ``"work address write depends"`` line
per event, so any change to the RNG call sequence, the event fields or
the chunking shows up here.

The digests were recorded before trace prefixes became columnar, from
traces that stored one ``TraceEvent`` per event.  Re-record them only
for an intended change to the synthetic workloads, and say why.
"""

import hashlib
from itertools import islice

import pytest

from repro.workloads.benchmarks import available_benchmarks, trace_for
from repro.workloads.mixes import workload_traces
from repro.workloads.trace import TRACE_CHUNK

COUNT = 3 * TRACE_CHUNK + 1

GOLDEN_PROFILES = {
    'apache':
        '35e3459ccc46dcf9cfc7e99d5707f146a50ae7ef94ca160307e002544b9622af',
    'astar':
        'c27cffc8f074264027b6d462d8a589cd69a5791fbd1665fa2ab5079d58313410',
    'bhm_mail':
        '02ddac32dab64d495ea9b29269fa5cffadfdd26145802e1d4bcba99261bd15bf',
    'blackscholes':
        '540deb4456478a7f9fe67c078e89bc8644d28eedc62927eb19549606138a63c5',
    'bodytrack':
        '5a389499f1fed3795d20f2f9d1fb2b4419a9ae80ad0afc6731471713ed7028ca',
    'bzip':
        '533b4892c159d0ead63dbfa41894d053e400ae03c296fb794abfd75acfc59d93',
    'ferret':
        '44f1f3ec69738f3523eb47810d499d695c53151b09fbf11388c1e876ae512d50',
    'gcc':
        '4dd94babf1fe855c5f8137f831a77a8fed4355a7e8dcd7f50619efdd2027db5a',
    'gobmk':
        'b7e108a859fdf8dec981f23ca1bf4b6c618fa1489fab376b7d755ec3168dbda6',
    'h264ref':
        '512831386c8dbc9fc2b498445e9e58e23ba9040bbb225bdb8b6dd8add7c47b84',
    'hmmer':
        '32936f8ee87ccab96095b5683fe6b5f010aadb12dc9c481e14b4974afe1f976c',
    'libquantum':
        '4a5d8bbeb08b3faf94d59122f823cf109a9b4d17e93454a9d11a66beb379e180',
    'mcf':
        'f459d60961429a96ab81e7d580512adc133d299bd78fcc514a0f6d6ab068cc6b',
    'omnetpp':
        '1d6c76d50ba3f4685350b8c05faf30ae160d113fc92c20f186ea6aaf646c9567',
    'sjeng':
        '4ea4f8d43247049af312771aa8663f7fb3577cbce8b9416b3df5306be1217148',
    'streamcluster':
        'ac1fcd6c27aa6f4c1f487bbfa08bba8e7f179cb11087c28e3dab77c3baf7f1e7',
    'swaptions':
        'f3231b95addef8d10488b184085ac2b0695cec7d78f256ad8254975a92aaf920',
    'x264':
        '76212faa53451e1274449d93cf2e3676fb2df2f074ee907892f5a1f161cd5f52',
}

GOLDEN_MIXES = {
    1: '66ba59915f69496ef63fd283e12de7071a4f3eb94587eadeab4ac838716b43d8',
    2: '33d431a086e223664306237f3f0ee6896bf1bf898e8def9915136a639cb3e959',
    3: 'c28e769b9b2b3572b9ca5c672b9348bdd7fe7975bf080f7cc7d62e81dd88b8bc',
    4: '2da5724611fa9f3295a2279288adb8437f2b46f7c2a4801a74a1d15c75741acd',
}


def trace_digest(traces) -> str:
    """sha256 over the leading events of ``traces``, each headed by its
    profile name."""
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(f"{trace.profile.name}\n".encode())
        for event in islice(iter(trace), COUNT):
            digest.update(f"{event.work} {event.address} "
                          f"{int(event.is_write)} {int(event.depends)}\n"
                          .encode())
    return digest.hexdigest()


def test_every_profile_is_pinned():
    assert sorted(GOLDEN_PROFILES) == available_benchmarks()


@pytest.mark.parametrize("name", sorted(GOLDEN_PROFILES))
def test_profile_trace_content(name):
    assert trace_digest([trace_for(name, seed=1)]) == GOLDEN_PROFILES[name]


@pytest.mark.parametrize("mix", sorted(GOLDEN_MIXES))
def test_mix_trace_content(mix):
    assert trace_digest(workload_traces(mix, seed=1)) == GOLDEN_MIXES[mix]
