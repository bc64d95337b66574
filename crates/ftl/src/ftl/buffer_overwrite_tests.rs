//! `#[cfg(test)] mod buffer_overwrite_tests` of `ftl.rs`.

use super::*;
use checkin_flash::{FlashArray, FlashGeometry, FlashTiming};

#[test]
fn buffered_overwrite_discards_old_slot() {
    let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
    let mut f = Ftl::new(
        flash,
        FtlConfig {
            unit_bytes: 512,
            write_points: 1,
            gc_threshold_blocks: 4,
            gc_soft_threshold_blocks: 8,
            ..FtlConfig::default()
        },
    )
    .unwrap();
    // Write the same lpn `upp` times: old buffered copies must be
    // dropped, so no page program should happen (buffer never fills).
    for v in 1..=8u64 {
        f.write(
            UnitWrite {
                lpn: Lpn(0),
                payload: UnitPayload::single(1, v, 512),
                whole_unit: true,
            },
            OobKind::Data,
            SimTime::ZERO,
        )
        .unwrap();
    }
    assert_eq!(f.flash().counters().total(Total::FlashProgram), 0);
    let (p, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
    assert_eq!(p.fragments[0].version, 8);
    f.check_invariants().unwrap();
}
