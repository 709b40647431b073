from homsys.acceptance import run_criteria


def test_criteria_1_to_5_pass():
    results = run_criteria({"1", "2", "3", "4", "5"}, echo=lambda line: None)
    assert [r.cid for r in results] == ["1", "2", "3", "4", "5"]
    failed = [f"{r.cid}: {r.detail}" for r in results if not r.passed]
    assert not failed
