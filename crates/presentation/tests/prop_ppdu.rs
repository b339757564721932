//! Property tests: PPDU roundtrip and decoder robustness.

use presentation::{ContextResult, Ppdu, ProposedContext};
use proptest::prelude::*;

fn ctx_strategy() -> impl Strategy<Value = ProposedContext> {
    ("[a-z0-9-]{1,16}", "[a-z0-9-]{1,8}", -100i64..100).prop_map(|(a, t, id)| ProposedContext {
        id,
        abstract_syntax: a,
        transfer_syntax: t,
    })
}

fn ppdu_strategy() -> impl Strategy<Value = Ppdu> {
    let data = proptest::collection::vec(any::<u8>(), 0..128);
    prop_oneof![
        (
            proptest::collection::vec(ctx_strategy(), 0..5),
            data.clone()
        )
            .prop_map(|(contexts, user_data)| Ppdu::Cp {
                contexts,
                user_data
            }),
        (
            proptest::collection::vec(
                (-100i64..100, any::<bool>())
                    .prop_map(|(id, accepted)| ContextResult { id, accepted }),
                0..5
            ),
            data.clone()
        )
            .prop_map(|(results, user_data)| Ppdu::Cpa { results, user_data }),
        ((-1000i64..1000), data.clone())
            .prop_map(|(reason, user_data)| Ppdu::Cpr { reason, user_data }),
        ((-100i64..100), data).prop_map(|(context_id, user_data)| Ppdu::Td {
            context_id,
            user_data
        }),
        (-1000i64..1000).prop_map(|reason| Ppdu::Aru { reason }),
    ]
}

proptest! {
    #[test]
    fn ppdu_roundtrips(p in ppdu_strategy()) {
        prop_assert_eq!(Ppdu::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Ppdu::decode(&bytes);
    }

    #[test]
    fn first_octet_is_the_constructed_application_tag(p in ppdu_strategy()) {
        prop_assert_eq!(u32::from(p.encode()[0]), 0x60 | p.tag());
    }
}
