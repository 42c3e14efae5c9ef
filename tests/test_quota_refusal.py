"""A harvest stops charging once the quota refuses a record: the rest of
that UTC day's records are skipped without touching the state file, and
the first record of a new day is charged again."""

import datetime as dt

import pytest

from libcat.client import CatalogClient, QuotaStore, harvest
from libcat.errors import QuotaExceededError
from libcat.model import BookRecord

DAY, NEXT_DAY = dt.date(2026, 8, 16), dt.date(2026, 8, 17)


def not_found(url, headers, timeout):
    """A `send` that answers every lookup with a 404."""
    return 404, "application/json", b"{}"


def count_charges(monkeypatch, days):
    """The day of each charge attempt; a refused one moves the day to
    `days[1]`, as if the budget ran out just before midnight."""
    attempts = []
    account = QuotaStore._account

    def counting(self, change=0, day=None):
        if change > 0:
            attempts.append(self._today())
        try:
            return account(self, change, day)
        except QuotaExceededError:
            days[0] = days[1]
            raise

    monkeypatch.setattr(QuotaStore, "_account", counting)
    return attempts


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_spent_budget_is_tried_once(monkeypatch, tmp_path, parallelism):
    days = [DAY, DAY]
    attempts = count_charges(monkeypatch, days)
    quota = QuotaStore(3, tmp_path / "quota.json", today=lambda: days[0])
    client = CatalogClient(
        "http://unit.test", quota=quota, send=not_found, parallelism=parallelism
    )
    records = [BookRecord(f"r{i:02}", "T", oclc=i) for i in range(1, 61)]
    result = harvest(client, records)
    assert result.quota_exhausted
    assert result.queried == ("r01", "r02", "r03")
    assert result.skipped == tuple((r.record_id, "quota exhausted") for r in records[3:])
    assert attempts == [DAY] * 4
    assert (quota.state().day, quota.state().used) == (DAY, 3)


def test_the_first_record_of_a_new_day_is_charged_again(monkeypatch, tmp_path):
    days = [DAY, NEXT_DAY]
    attempts = count_charges(monkeypatch, days)
    quota = QuotaStore(3, tmp_path / "quota.json", today=lambda: days[0])
    # one lookup at a time, so each unit is spent before the next is charged
    client = CatalogClient("http://unit.test", quota=quota, send=not_found)
    records = [BookRecord(f"r{i:02}", "T", oclc=i) for i in range(1, 21)]
    result = harvest(client, records)
    assert result.queried == ("r01", "r02", "r03", "r05", "r06", "r07")
    refused = [r.record_id for r in records if r.record_id not in result.queried]
    assert result.skipped == tuple((record_id, "quota exhausted") for record_id in refused)
    assert attempts == [DAY] * 4 + [NEXT_DAY] * 4
    assert (quota.state().day, quota.state().used) == (NEXT_DAY, 3)
