"""The `--samples-out` writer gives the bytes of format(v, ".12g") per row.

`cli._sample_rows` builds the rows as arrays; every test compares it with
the one-row-at-a-time reference below.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from haar_digits import cli
from haar_digits.cli import main

BASES = (2, 3, 7, 10, 11, 16, 100, 2**16)


def reference(values) -> bytes:
    return "".join(format(float(v), ".12g") + "\n" for v in values).encode("ascii")


def assert_rows(values):
    values = np.asarray(values, dtype=float)
    assert cli._sample_rows(values) == reference(values)


@st.composite
def blocks(draw):
    base = draw(st.sampled_from(BASES))
    value = st.floats(min_value=1.0, max_value=base, exclude_max=True)
    return draw(st.lists(value, min_size=1, max_size=50))


@given(blocks())
def test_rows_equal_format_12g(values):
    assert_rows(values)


@pytest.mark.parametrize("digits", [1, 2, 5])
def test_decimal_ties_and_their_neighbours(digits):
    # The doubles nearest to k 10^-11 + 5 10^-12, scaled to `digits` integer
    # digits, lie within an ulp of a half at the twelfth digit.
    rng = np.random.default_rng(digits)
    ks = rng.integers(10**11, 10**12, size=2000).tolist() + [10**11, 10**12 - 1]
    ties = np.array([(10 * k + 5) / 10 ** (13 - digits) for k in ks])
    assert_rows(ties)
    assert_rows(np.nextafter(ties, 0.0))
    assert_rows(np.nextafter(ties, np.inf))


def test_exact_binary_ties_round_half_even():
    # 1 + 2^-q is an exact half at the twelfth digit for q = 12
    # (1.000244140625): it rounds to the even 1.00024414062.
    values = [1.0 + 2.0**-q for q in range(1, 53)] + [8.0 + 2.0**-q for q in range(1, 50)]
    assert format(1.0 + 2.0**-12, ".12g") == "1.00024414062"
    assert_rows(values)


@pytest.mark.parametrize("base", BASES)
def test_ends_of_the_range(base):
    powers = [10.0**p for p in range(1, 5) if 10.0**p < base]
    below = [math.nextafter(p, 0.0) for p in powers + [base]]
    assert_rows([1.0, math.nextafter(1.0, 2.0)] + powers + below)


@pytest.mark.parametrize(
    "value, row",
    [(9.9999999999996, "10"), (15.999999999999998, "16"), (99.999999999996, "100"),
     (65535.99999999999, "65536"), (9.999999999994, "9.99999999999")],
)
def test_rows_next_to_a_whole_number(value, row):
    assert cli._sample_rows(np.array([value])) == f"{row}\n".encode()
    assert_rows([value])


@pytest.mark.parametrize("zeros", range(12))
@pytest.mark.parametrize("digits", [1, 2, 5])
def test_trailing_zeros(zeros, digits):
    # Twelve significant digits of which the last `zeros` are 0: %g drops
    # them, and the '.' when the fraction is all zeros.
    m = 123456789012 // 10**zeros * 10**zeros
    values = [m / 10 ** (12 - digits), (m + 10**zeros) / 10 ** (12 - digits)]
    assert_rows(values)


def test_whole_numbers_keep_their_zeros():
    assert cli._sample_rows(np.array([1.0, 10.0, 20.0, 100.0, 1000.0, 60000.0])) == (
        b"1\n10\n20\n100\n1000\n60000\n"
    )


@pytest.mark.parametrize("rows", [1, cli._SAMPLES_BLOCK - 1, cli._SAMPLES_BLOCK,
                                  cli._SAMPLES_BLOCK + 1])
def test_write_samples_across_block_edges(tmp_path, rows):
    rng = np.random.default_rng(rows)
    values = np.sort(np.exp(rng.random(rows) * math.log(16.0)))
    path = tmp_path / "sig.csv"
    cli._write_samples(values, str(path))
    assert path.read_bytes() == b"significand\n" + reference(values)


def test_digit_tables_are_built_on_first_write(tmp_path, capsys):
    cli._digit_tables.cache_clear()
    assert main(["law", "--law", "benford"]) == 0
    assert main(["sample", "--group", "rplus", "--N", "2000"]) == 0
    assert cli._digit_tables.cache_info().currsize == 0
    path = tmp_path / "sig.csv"
    assert main(["sample", "--group", "rplus", "--N", "2000", "--samples-out", str(path)]) == 0
    assert cli._digit_tables.cache_info().currsize == 1
    capsys.readouterr()
