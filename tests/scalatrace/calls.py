"""The call a one-call record stands for, as ``IntraCompressor.append``
takes it: the inverse of ``EventRecord.of`` (which the round trip in
``test_intra`` checks)."""

from repro.scalatrace import EventRecord


def call(rec: EventRecord) -> tuple:
    def end(ep):
        return None if ep is None else (ep.rel, ep.abs_)

    return (rec.op, (rec.stack_sig, rec.frames), rec.participants,
            rec.comm_id, end(rec.src), end(rec.dest), rec.root,
            rec.count.min, rec.tag.min, rec.dhist.sum)
