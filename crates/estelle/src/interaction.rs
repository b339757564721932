//! Interactions — the typed messages exchanged over Estelle channels.

use std::any::Any;
use std::fmt;

/// A message that can travel over an Estelle channel.
///
/// Implement via [`crate::impl_interaction!`] for any `Debug + 'static`
/// type:
///
/// ```
/// use estelle::impl_interaction;
///
/// #[derive(Debug)]
/// struct ConnectReq { addr: u32 }
/// impl_interaction!(ConnectReq);
///
/// let boxed: Box<dyn estelle::Interaction> = Box::new(ConnectReq { addr: 7 });
/// assert!(boxed.is::<ConnectReq>());
/// let back = estelle::downcast::<ConnectReq>(boxed).unwrap();
/// assert_eq!(back.addr, 7);
/// ```
pub trait Interaction: fmt::Debug + 'static {
    /// Upcast for inspection.
    fn as_any(&self) -> &dyn Any;
    /// Upcast for consumption.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl dyn Interaction {
    /// Returns true if the boxed interaction is of concrete type `T`.
    pub fn is<T: Interaction>(&self) -> bool {
        self.as_any().is::<T>()
    }

    /// Borrows the interaction as `T` if it has that type.
    pub fn downcast_ref<T: Interaction>(&self) -> Option<&T> {
        self.as_any().downcast_ref::<T>()
    }
}

/// The `provided` guard of a `when` transition that takes only `T`s:
/// an interaction is offered and it has concrete type `T`.
pub fn is<T: Interaction>(msg: Option<&dyn Interaction>) -> bool {
    msg.is_some_and(|m| m.is::<T>())
}

/// Consumes a boxed interaction, returning the concrete value if it has
/// type `T`, or the original box otherwise.
pub fn downcast<T: Interaction>(
    msg: Box<dyn Interaction>,
) -> std::result::Result<T, Box<dyn Interaction>> {
    if msg.is::<T>() {
        Ok(*msg.into_any().downcast::<T>().expect("type checked above"))
    } else {
        Err(msg)
    }
}

/// Implements [`Interaction`] for one or more concrete types.
#[macro_export]
macro_rules! impl_interaction {
    ($($t:ty),+ $(,)?) => {
        $(
            impl $crate::Interaction for $t {
                fn as_any(&self) -> &dyn ::std::any::Any {
                    self
                }
                fn into_any(self: ::std::boxed::Box<Self>) -> ::std::boxed::Box<dyn ::std::any::Any> {
                    self
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);
    #[derive(Debug, PartialEq)]
    struct Pong;
    impl_interaction!(Ping, Pong);

    #[test]
    fn downcast_roundtrip() {
        let b: Box<dyn Interaction> = Box::new(Ping(9));
        assert!(b.is::<Ping>());
        assert!(!b.is::<Pong>());
        assert_eq!(b.downcast_ref::<Ping>(), Some(&Ping(9)));
        let got = downcast::<Ping>(b).unwrap();
        assert_eq!(got, Ping(9));
    }

    #[test]
    fn failed_downcast_returns_original() {
        let b: Box<dyn Interaction> = Box::new(Pong);
        let back = downcast::<Ping>(b).unwrap_err();
        assert!(back.is::<Pong>());
    }

    #[test]
    fn is_guard_needs_an_offered_interaction_of_the_type() {
        let ping: &dyn Interaction = &Ping(1);
        let pong: &dyn Interaction = &Pong;
        assert!(!is::<Ping>(None), "a spontaneous transition offers nothing");
        assert!(!is::<Ping>(Some(pong)));
        assert!(is::<Ping>(Some(ping)));
    }

    #[test]
    fn macro_works_in_function_scope() {
        #[derive(Debug)]
        struct Local;
        impl_interaction!(Local);
        let b: Box<dyn Interaction> = Box::new(Local);
        assert!(b.is::<Local>());
    }
}
